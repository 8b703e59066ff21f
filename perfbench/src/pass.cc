#include "pass.hh"

#include <cstdio>

namespace perfbench
{

using tarantula::sim::Job;

namespace
{

void
add(Phases &sum, const Phases &t)
{
    sum.build += t.build;
    sum.init += t.init;
    sum.construct += t.construct;
    sum.run += t.run;
    sum.check += t.check;
    sum.record += t.record;
    sum.save += t.save;
    sum.restore += t.restore;
    sum.func += t.func;
    sum.snapBytes += t.snapBytes;
    sum.runAllocs += t.runAllocs;
}

void
add(Layers &sum, const Layers &l)
{
    sum.horizon += l.horizon;
    sum.ff += l.ff;
    sum.zbox += l.zbox;
    sum.l2 += l.l2;
    sum.vbox += l.vbox;
    sum.ev8 += l.ev8;
    sum.zboxAllocs += l.zboxAllocs;
    sum.l2Allocs += l.l2Allocs;
    sum.vboxAllocs += l.vboxAllocs;
    sum.ev8Allocs += l.ev8Allocs;
}

} // anonymous namespace

std::string
jobName(const Job &job)
{
    std::string name = job.machine + "/" + job.workload;
    if (job.noPump)
        name += "/nopump";
    if (job.forceCrBox)
        name += "/crbox";
    if (job.workload == "fuzz" || job.workload == "fuzzs")
        name += "/seed" + std::to_string(job.seed);
    if (!job.faults.empty())
        name += "/" + job.faults;
    if (!job.fastForward)
        name += "/stepped";
    else if (job.selfResumeAt)
        name += "/resume@" + std::to_string(job.selfResumeAt);
    return name;
}

PassResult
runPass(const JobSet &set, const PassOptions &opt)
{
    PassResult pass;
    const std::size_t n = set.jobs.size();
    pass.fingerprints.resize(n);
    pass.jobs.resize(n);
    std::vector<bool> failed(n, false);
    std::vector<std::string> records(n);

    auto fail = [&](std::size_t i, const std::string &why, bool wrong) {
        if (!failed[i]) {
            std::fprintf(stderr, "perfbench: job %s failed: %s\n",
                         jobName(set.jobs[i]).c_str(), why.c_str());
        }
        failed[i] = true;
        pass.wrong = pass.wrong || wrong;
    };

    for (std::size_t i = 0; i < n; ++i) {
        DriveOptions d;
        d.traced = opt.traced;
        // One functional leg per distinct program: the first job of a
        // campaign point stands for all three of its modes.
        d.funcLeg = !opt.traced && i % set.groupSize == 0;
        d.snapRoundTrip = opt.snapRoundTrip;
        d.scratchDir = opt.scratchDir;
        d.recordName = "job" + std::to_string(i) + ".json";
        if (opt.corrupt) {
            d.corrupt = [&opt, i](tarantula::exec::FunctionalMemory &m) {
                opt.corrupt(i, m);
            };
        }
        const JobOutcome o = runBenchJob(set.jobs[i], d);

        pass.wall += o.t.total();
        add(pass.t, o.t);
        pass.cycles += o.cycles;
        pass.insts += o.insts;
        pass.funcInsts += o.funcInsts;
        pass.steps += o.cycles - o.ffSkipped;
        pass.ffJumps += o.ffJumps;
        pass.fingerprints[i] = {o.cycles, o.statsDigest};
        pass.jobs[i] = {o.t, o.insts, o.layers.traced};
        if (o.layers.traced) {
            add(pass.layers, o.layers);
            pass.tracedInsts += o.insts;
        }
        records[i] = modeComparable(o.record);

        if (!o.ok) {
            // A wrong answer is a wrong result; a throw or timeout is
            // a failure of the run, not of its output.
            fail(i, o.message, o.message.rfind("wrong result", 0) == 0 ||
                                   o.message.rfind("timing run", 0) == 0);
        }
        if (opt.reference && (*opt.reference)[i] != pass.fingerprints[i]) {
            fail(i,
                 "cycles/stats digest " + std::to_string(o.cycles) + "/" +
                     std::to_string(o.statsDigest) + " differ from the "
                     "reference " +
                     std::to_string((*opt.reference)[i].first) + "/" +
                     std::to_string((*opt.reference)[i].second),
                 true);
        }
    }

    // Campaign points: the engine modes must agree byte for byte.
    if (set.groupSize > 1 && !opt.traced) {
        for (std::size_t g = 0; g + set.groupSize <= n; g += set.groupSize) {
            for (std::size_t k = 1; k < set.groupSize; ++k) {
                if (records[g + k] == records[g])
                    continue;
                for (std::size_t j = g; j < g + set.groupSize; ++j)
                    fail(j, "engine modes of the point disagree", true);
                break;
            }
        }
    }

    pass.attempted = n;
    for (bool f : failed)
        pass.failed += f ? 1 : 0;
    return pass;
}

} // namespace perfbench
