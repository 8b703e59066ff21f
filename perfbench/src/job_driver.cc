#include "job_driver.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "alloc_count.hh"
#include "base/logging.hh"
#include "check/fault_plan.hh"
#include "exec/interp.hh"
#include "proc/machine_config.hh"
#include "sim/result_sink.hh"
#include "system/system.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace tarantula;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Tick source for the traced drive. A TSC read costs ~20 ns here
 * against ~35 ns for steady_clock; ticks become seconds through a
 * steady_clock calibration over the whole drive.
 */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        Clock::now().time_since_epoch().count());
#endif
}

/** The MachineConfig sim::runJob() builds for a single-core job. */
proc::MachineConfig
configFor(const sim::Job &job)
{
    if (job.cores > 1 || job.vmPageBits || job.trace || job.sampleEvery ||
        !job.resumeFrom.empty())
        throw std::invalid_argument(
            "perfbench drives single-core jobs without VM, tracing or "
            "warm starts");
    proc::MachineConfig cfg = proc::machineByName(job.machine);
    cfg.vbox.slicer.pumpEnabled = !job.noPump;
    cfg.vbox.slicer.forceCrBox = job.forceCrBox;
    cfg.integrity.checks = job.check;
    if (!job.faults.empty())
        cfg.integrity.faults = check::FaultPlan::parse(job.faults);
    cfg.fastForward = job.fastForward;
    cfg.ucache = job.ucache;
    if (job.deadlockCycles)
        cfg.deadlockCycles = job.deadlockCycles;
    return cfg;
}

/**
 * System::run's loop spelled out through public component calls, in
 * System::step's order, each call timed and its allocations counted.
 * Integrity sweeps and the sampler are not replicated: the caller
 * only drives jobs with both off.
 */
Cycle
tracedDrive(sys::System &sys, const proc::MachineConfig &cfg,
            std::uint64_t max_cycles, Layers &out)
{
    ev8::Core &core = sys.core(0);
    vbox::Vbox *vb = sys.vbox(0);
    cache::L2Cache &l2 = sys.l2();
    mem::Zbox &zbox = sys.zbox();
    auto idle = [&] {
        return l2.idle() && zbox.idle() && core.done() &&
               (!vb || vb->idle());
    };

    std::uint64_t horizon = 0, ff = 0, tz = 0, tl2 = 0, tvb = 0, tev8 = 0;
    std::uint64_t last_retired = 0;
    Cycle now = sys.now();
    Cycle last_progress = now;

    const auto wall_start = Clock::now();
    const std::uint64_t tick_start = ticks();
    while (!idle()) {
        if (now >= max_cycles)
            throw TimeoutError("processor '" + cfg.name + "': exceeded " +
                               std::to_string(max_cycles) + " cycles");
        if (cfg.fastForward) {
            const std::uint64_t h0 = ticks();
            // quiescentUntil_: minimum horizon, short-circuited as soon
            // as any component wants the very next cycle.
            Cycle target = core.nextEventCycle();
            if (vb && target > now + 1)
                target = std::min(target, vb->nextEventCycle());
            if (target > now + 1)
                target = std::min(target, l2.nextEventCycle());
            if (target > now + 1)
                target = std::min(target, zbox.nextEventCycle());
            if (target > now + 1) {
                if (cfg.deadlockCycles)
                    target = std::min(
                        target, last_progress + cfg.deadlockCycles + 1);
                target = std::min(target, static_cast<Cycle>(max_cycles));
            }
            target = std::max(target, now + 1);
            const std::uint64_t h1 = ticks();
            horizon += h1 - h0;
            if (target > now + 1) {
                const Cycle delta = target - now - 1;
                now += delta;
                setPanicCycle(now);
                zbox.fastForward(delta);
                l2.fastForward(delta);
                if (vb)
                    vb->fastForward(delta);
                core.fastForward(delta);
                ff += ticks() - h1;
            }
        }

        ++now;
        setPanicCycle(now);
        const std::uint64_t a0 = allocCount();
        const std::uint64_t t0 = ticks();
        zbox.cycle();
        const std::uint64_t a1 = allocCount();
        const std::uint64_t t1 = ticks();
        l2.cycle();
        const std::uint64_t a2 = allocCount();
        const std::uint64_t t2 = ticks();
        if (vb)
            vb->cycle();
        const std::uint64_t a3 = allocCount();
        const std::uint64_t t3 = ticks();
        core.cycle();
        const std::uint64_t t4 = ticks();
        const std::uint64_t a4 = allocCount();
        tz += t1 - t0;
        tl2 += t2 - t1;
        tvb += t3 - t2;
        tev8 += t4 - t3;
        out.zboxAllocs += a1 - a0;
        out.l2Allocs += a2 - a1;
        out.vboxAllocs += a3 - a2;
        out.ev8Allocs += a4 - a3;

        // The deadlock watchdog, as System::run keeps it.
        const std::uint64_t retired = core.numRetired();
        if (retired != last_retired) {
            last_retired = retired;
            last_progress = now;
        } else if (cfg.deadlockCycles &&
                   now - last_progress > cfg.deadlockCycles) {
            panic("processor '%s': no retirement in %llu cycles",
                  cfg.name.c_str(),
                  static_cast<unsigned long long>(cfg.deadlockCycles));
        }
    }
    const std::uint64_t tick_total = ticks() - tick_start;
    const double wall = since(wall_start);
    const double sec_per_tick =
        tick_total ? wall / static_cast<double>(tick_total) : 0.0;
    out.traced = true;
    out.horizon = horizon * sec_per_tick;
    out.ff = ff * sec_per_tick;
    out.zbox = tz * sec_per_tick;
    out.l2 = tl2 * sec_per_tick;
    out.vbox = tvb * sec_per_tick;
    out.ev8 = tev8 * sec_per_tick;
    return now;
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

} // anonymous namespace

std::string
modeComparable(const std::string &record)
{
    const auto pos = record.find("\"status\"");
    return pos == std::string::npos ? record : record.substr(pos);
}

JobOutcome
runBenchJob(const sim::Job &job, const DriveOptions &opt)
{
    JobOutcome out;
    Phases &t = out.t;
    sim::JobResult result;
    result.job = job;
    // The workload and memory image outlive the machine that points
    // into them.
    std::unique_ptr<workloads::Workload> w;
    std::unique_ptr<exec::FunctionalMemory> mem;
    std::unique_ptr<sys::System> cpu;

    try {
        const proc::MachineConfig cfg = configFor(job);

        auto mark = Clock::now();
        w = std::make_unique<workloads::Workload>(
            workloads::byName(job.workload, job.seed, job.vl));
        t.build = since(mark);

        mark = Clock::now();
        mem = std::make_unique<exec::FunctionalMemory>();
        w->init(*mem);
        t.init = since(mark);

        const program::Program *prog =
            cfg.hasVbox ? &w->vectorProg : &w->scalarProg;
        const std::vector<const program::Program *> progs{prog};
        const std::vector<exec::FunctionalMemory *> mems{mem.get()};

        mark = Clock::now();
        cpu = std::make_unique<sys::System>(cfg, progs, mems);
        for (const auto &r : w->warmRanges) {
            for (std::uint64_t o = 0; o < r.bytes; o += CacheLineBytes)
                cpu->l2().warmLine(r.base + o);
        }
        t.construct = since(mark);

        // Save the running machine, tear it down, rebuild it and
        // restore: the self-resume leg and the snapshot round trip.
        const std::string snap_path =
            opt.scratchDir + "/" + opt.recordName + ".snap";
        auto saveAndRestore = [&] {
            auto m = Clock::now();
            cpu->snapshot(snap_path, job.workload);
            t.save += since(m);
            t.snapBytes += fileBytes(snap_path);
            m = Clock::now();
            cpu = std::make_unique<sys::System>(cfg, progs, mems);
            cpu->restoreFrom(snap_path);
            std::filesystem::remove(snap_path);
            t.restore += since(m);
        };

        // Timed System::run, with the allocations made inside it.
        auto timedRun = [&](std::optional<Cycle> stop) {
            const std::uint64_t a = allocCount();
            const auto m = Clock::now();
            result.run = cpu->run(job.maxCycles, stop);
            t.run += since(m);
            t.runAllocs += allocCount() - a;
        };

        const bool trace_drive = opt.traced && !job.selfResumeAt &&
                                 !cfg.integrity.checks;
        if (trace_drive) {
            mark = Clock::now();
            out.cycles = tracedDrive(*cpu, cfg, job.maxCycles, out.layers);
            t.run = since(mark);
            out.insts = cpu->core(0).numRetired();
        } else {
            if (job.selfResumeAt) {
                timedRun(job.selfResumeAt);
                if (!cpu->finished())
                    saveAndRestore();
            }
            timedRun(std::nullopt);
            out.cycles = result.run.cycles;
            out.insts = result.run.insts;
            out.ffJumps = result.run.ffJumps;
            out.ffSkipped = result.run.ffSkippedCycles;
        }
        out.statsDigest = cpu->statsDigest();

        if (opt.snapRoundTrip && !trace_drive) {
            const Cycle before = cpu->now();
            saveAndRestore();
            if (cpu->now() != before ||
                cpu->statsDigest() != out.statsDigest)
                throw std::runtime_error(
                    "snapshot round trip changed the machine");
        }

        if (opt.corrupt)
            opt.corrupt(*mem);
        mark = Clock::now();
        const std::string err = w->check(*mem);
        t.check = since(mark);
        if (err.empty()) {
            result.status = sim::JobStatus::Ok;
        } else {
            result.status = sim::JobStatus::Failed;
            result.message = "wrong result: " + err;
        }
        if (!trace_drive) {
            mark = Clock::now();
            if (result.ok()) {
                std::ostringstream stats;
                cpu->stats().reportJson(stats);
                result.statsJson = stats.str();
            }
            std::ostringstream os;
            sim::writeJobRecord(os, result, /*deterministic=*/true);
            out.record = os.str();
            std::ofstream f(opt.scratchDir + "/" + opt.recordName);
            f << out.record;
            if (!f)
                throw std::runtime_error("cannot write the job record");
            t.record = since(mark);
        }
        out.ok = result.ok();
        out.message = result.message;

        if (opt.funcLeg) {
            exec::FunctionalMemory fmem;
            w->init(fmem);
            exec::Interpreter interp(*prog, fmem);
            interp.setUcache(true);
            mark = Clock::now();
            out.funcInsts = interp.run();
            t.func = since(mark);
            if (out.ok && out.funcInsts != out.insts) {
                out.ok = false;
                out.message =
                    "timing run retired " + std::to_string(out.insts) +
                    " instructions, the functional engine ran " +
                    std::to_string(out.funcInsts);
            }
        }
    } catch (const std::exception &e) {
        out.ok = false;
        out.message = e.what();
        if (!opt.traced) {
            result.status = dynamic_cast<const TimeoutError *>(&e)
                                 ? sim::JobStatus::TimedOut
                                 : sim::JobStatus::Failed;
            result.message = e.what();
            std::ostringstream os;
            sim::writeJobRecord(os, result, /*deterministic=*/true);
            out.record = os.str();
        }
    }
    clearPanicCycle();
    return out;
}

} // namespace perfbench
