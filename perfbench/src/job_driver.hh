/**
 * @file
 * One benchmark job, driven through the simulator's public calls with
 * every phase timed from outside.
 *
 * runBenchJob() does what sim::runJob() does for a single-core job --
 * workloads::byName, Workload::init, sys::System construction and L2
 * warm-up, System::run (with the self-resume leg done by hand:
 * run to the stop cycle, snapshot, rebuild, restoreFrom), then
 * Workload::check and a deterministic tarantula.job.v1 record -- but
 * times each phase with steady_clock, so the benchmark can split a
 * job's host time into set-up, simulation, check and record.
 *
 * In traced mode the simulation phase is instead driven one component
 * call at a time in System::step's order (nextEventCycle, fastForward,
 * cycle), each call timed with the TSC and its heap allocations
 * counted. The traced drive adds no call the System does not make, so
 * it must reproduce the untraced cycle count and stats digest.
 */

#ifndef PERFBENCH_JOB_DRIVER_HH
#define PERFBENCH_JOB_DRIVER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "base/types.hh"
#include "exec/memory.hh"
#include "sim/job.hh"

namespace perfbench
{

using tarantula::Cycle;

/** Host seconds per phase of one job, timed with steady_clock. */
struct Phases
{
    double build = 0.0;      ///< workloads::byName (incl. fuzz generation)
    double init = 0.0;       ///< Workload::init
    double construct = 0.0;  ///< System constructor + warmLine loop
    double run = 0.0;        ///< inside System::run (or the traced drive)
    double check = 0.0;      ///< Workload::check
    double record = 0.0;     ///< stats JSON + writeJobRecord + file write
    double save = 0.0;       ///< System::snapshot
    double restore = 0.0;    ///< rebuild + System::restoreFrom
    double func = 0.0;       ///< bare Interpreter::run (not in total())
    std::uint64_t snapBytes = 0;
    /** Heap allocations made inside System::run. */
    std::uint64_t runAllocs = 0;

    double setup() const { return build + init + construct; }

    /** The job's end-to-end host time: everything but the func leg. */
    double
    total() const
    {
        return setup() + run + check + record + save + restore;
    }
};

/** Per-component split of a traced drive (seconds, allocations). */
struct Layers
{
    bool traced = false;     ///< false: the job was not driven traced
    double horizon = 0.0;    ///< every nextEventCycle call
    double ff = 0.0;         ///< every fastForward call
    double zbox = 0.0;       ///< mem::Zbox::cycle
    double l2 = 0.0;         ///< cache::L2Cache::cycle
    double vbox = 0.0;       ///< vbox::Vbox::cycle
    double ev8 = 0.0;        ///< ev8::Core::cycle
    std::uint64_t zboxAllocs = 0;
    std::uint64_t l2Allocs = 0;
    std::uint64_t vboxAllocs = 0;
    std::uint64_t ev8Allocs = 0;
};

/** Everything one job produced. */
struct JobOutcome
{
    bool ok = false;         ///< ran to the end and passed its checks
    std::string message;     ///< diagnostic when !ok
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t ffJumps = 0;
    std::uint64_t ffSkipped = 0;
    std::uint64_t statsDigest = 0;
    std::uint64_t funcInsts = 0;  ///< bare Interpreter::run count
    /**
     * Deterministic tarantula.job.v1 record (host fields zeroed).
     * Empty for traced drives, which produce no RunResult.
     */
    std::string record;
    Phases t;
    Layers layers;
};

/** How runBenchJob() drives one job. */
struct DriveOptions
{
    /** Drive the simulation phase traced (see file comment). */
    bool traced = false;
    /**
     * Also run the job's program on a fresh input image through the
     * bare functional engine (µop engine on), time it, and fail the
     * job unless its instruction count equals the timing run's.
     */
    bool funcLeg = false;
    /**
     * After the run, snapshot the finished machine, rebuild it,
     * restore, and fail the job unless cycle and stats digest survive
     * the round trip (times the snap layer on jobs with no resume leg).
     */
    bool snapRoundTrip = false;
    /** Directory for snapshots and records (must exist). */
    std::string scratchDir;
    /** File name of the job's record inside scratchDir. */
    std::string recordName;
    /** Test hook: damage the memory image between run and check. */
    std::function<void(tarantula::exec::FunctionalMemory &)> corrupt;
};

/**
 * Run one single-core job; never throws. A simulator exception, a
 * timeout, a failed check or a failed cross-check makes the outcome
 * !ok with the reason in message.
 */
JobOutcome runBenchJob(const tarantula::sim::Job &job,
                       const DriveOptions &opt);

/** Record bytes from "status" on: equal across engine modes. */
std::string modeComparable(const std::string &record);

} // namespace perfbench

#endif // PERFBENCH_JOB_DRIVER_HH
