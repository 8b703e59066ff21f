/**
 * @file
 * One pass: every job of a workload's job set once, with the checks
 * that decide which jobs count as failed.
 *
 * A job fails when it throws or times out, when Workload::check
 * rejects its outputs, when its retired instructions differ from the
 * bare functional engine's count, when it does not reproduce the
 * cycle count and stats digest of the run's first pass (determinism;
 * for traced passes, the untraced reference), or when the engine
 * modes of its campaign point disagree on their deterministic record.
 */

#ifndef PERFBENCH_PASS_HH
#define PERFBENCH_PASS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "job_driver.hh"
#include "job_sets.hh"

namespace perfbench
{

/** A job's reproducible identity: cycles and stats digest. */
using Fingerprint = std::pair<Cycle, std::uint64_t>;

/** One job's figures within a pass. */
struct JobSample
{
    Phases t;
    std::uint64_t insts = 0;
    bool traced = false;        ///< driven by the traced drive
};

/** Sums over one pass. */
struct PassResult
{
    double wall = 0.0;          ///< Σ job end-to-end time
    Phases t;                   ///< Σ of every job's phases
    Layers layers;              ///< Σ over traced drives
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;    ///< retired, every job
    std::uint64_t tracedInsts = 0;     ///< retired, traced drives only
    std::uint64_t funcInsts = 0;
    std::uint64_t steps = 0;    ///< cycles stepped (not jumped over)
    std::uint64_t ffJumps = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Some job produced a wrong or irreproducible result. */
    bool wrong = false;
    /** Per job, in job-set order. */
    std::vector<Fingerprint> fingerprints;
    std::vector<JobSample> jobs;
};

/** How to run a pass. */
struct PassOptions
{
    bool traced = false;
    bool snapRoundTrip = false;
    std::string scratchDir;
    /** Fingerprints every job must reproduce; empty = none yet. */
    const std::vector<Fingerprint> *reference = nullptr;
    /** Test hook: damage job @p index's memory before its check. */
    std::function<void(std::size_t index,
                       tarantula::exec::FunctionalMemory &)>
        corrupt;
};

/** A printable job name (machine/workload, seed and mode if set). */
std::string jobName(const tarantula::sim::Job &job);

/** Run every job of @p set once; failures are reported on stderr. */
PassResult runPass(const JobSet &set, const PassOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_PASS_HH
