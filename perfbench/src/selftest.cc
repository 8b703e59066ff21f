/**
 * @file
 * perfbench --self-test: shows that the benchmark's checks can fail
 * and that its job driver is faithful to the library's.
 *
 * - one corrupted output word (a kernel's and a fuzz program's) makes
 *   the job count as failed, while the untouched twin passes;
 * - a drop_fill corruption fault on one campaign point makes the
 *   campaign check fail exactly that point's three jobs;
 * - runBenchJob's deterministic record equals sim::runJob's, byte for
 *   byte, for kernel jobs and all three modes of a campaign point;
 * - the traced drive reproduces the untraced cycles and stats digest.
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "fuzzgen/fuzzgen.hh"
#include "pass.hh"
#include "sim/fuzz_campaign.hh"
#include "sim/result_sink.hh"

namespace perfbench
{

using namespace tarantula;

namespace
{

/** dgemm's result matrix C (workloads/dense_algebra.cc MatC). */
constexpr Addr DgemmOutput = 0x20000000;

int failures = 0;

void
expect(bool cond, const std::string &what)
{
    std::fprintf(stderr, "perfbench self-test: %s: %s\n",
                 cond ? "ok  " : "FAIL", what.c_str());
    failures += cond ? 0 : 1;
}

sim::Job
job(const std::string &machine, const std::string &workload,
    std::uint64_t seed = 0)
{
    sim::Job j;
    j.machine = machine;
    j.workload = workload;
    j.seed = seed;
    return j;
}

/** Flip every bit of the qword at @p addr. */
void
flip(exec::FunctionalMemory &mem, Addr addr)
{
    mem.writeQ(addr, ~mem.readQ(addr));
}

void
corruptedWordFails(const std::string &dir)
{
    // Jobs 1 and 3 are damaged twins of jobs 0 and 2.
    JobSet set;
    set.jobs = {job("T", "dgemm"), job("T", "dgemm"), job("T", "fuzz", 3),
                job("T", "fuzz", 3)};
    PassOptions opt;
    opt.scratchDir = dir;
    opt.corrupt = [](std::size_t i, exec::FunctionalMemory &mem) {
        if (i == 1)
            flip(mem, DgemmOutput);
        if (i == 3)
            flip(mem, fuzzgen::Region);
    };
    const PassResult p = runPass(set, opt);
    expect(p.attempted == 4 && p.failed == 2 && p.wrong,
           "a corrupted output word fails its job (" +
               std::to_string(p.failed) + " of " +
               std::to_string(p.attempted) + " failed)");
}

void
dropFillIsReported(const std::string &dir)
{
    sim::CampaignOptions copt;
    copt.seedLo = copt.seedHi = 1;
    copt.variants = "T";
    copt.faultPlans = "drop_fill@100+5000";
    JobSet set{sim::buildCampaign(copt), 3};
    PassOptions opt;
    opt.scratchDir = dir;
    const PassResult p = runPass(set, opt);
    expect(set.jobs.size() == 6 && p.failed == 3,
           "a drop_fill fault fails its campaign point's three jobs (" +
               std::to_string(p.failed) + " of " +
               std::to_string(p.attempted) + " failed)");
}

void
recordsMatchRunJob(const std::string &dir)
{
    sim::CampaignOptions copt;
    copt.seedLo = copt.seedHi = 2;
    copt.variants = "crbox";
    std::vector<sim::Job> jobs = sim::buildCampaign(copt);
    jobs.push_back(job("T", "rndcopy"));
    jobs.push_back(job("EV8", "swim"));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        DriveOptions d;
        d.scratchDir = dir;
        d.recordName = "selftest.json";
        const JobOutcome mine = runBenchJob(jobs[i], d);
        std::ostringstream lib;
        sim::writeJobRecord(lib, sim::runJob(jobs[i]), true);
        expect(mine.ok && mine.record == lib.str(),
               "record of " + jobName(jobs[i]) +
                   " equals sim::runJob's");
    }

    JobSet set{jobs, 1};
    PassOptions opt;
    opt.scratchDir = dir;
    const PassResult plain = runPass(set, opt);
    opt.traced = true;
    opt.reference = &plain.fingerprints;
    const PassResult traced = runPass(set, opt);
    std::size_t n_traced = 0;
    for (const JobSample &j : traced.jobs)
        n_traced += j.traced ? 1 : 0;
    expect(plain.failed == 0 && traced.failed == 0 && n_traced == 4,
           "the traced drive reproduces cycles and stats digests (" +
               std::to_string(n_traced) + " jobs traced)");
}

} // anonymous namespace

int
selfTest(const std::string &scratch_dir)
{
    // sim::runJob writes its self-resume snapshot to the temp dir.
    ::setenv("TMPDIR", scratch_dir.c_str(), 1);
    corruptedWordFails(scratch_dir);
    dropFillIsReported(scratch_dir);
    recordsMatchRunJob(scratch_dir);
    std::fprintf(stderr, "perfbench self-test: %s\n",
                 failures ? "FAILED" : "passed");
    return failures ? 1 : 0;
}

} // namespace perfbench
