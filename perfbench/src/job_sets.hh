/**
 * @file
 * The benchmark's three workloads as lists of sim::Jobs.
 *
 * compute_kernels  cache-resident Figure 7 kernels: scalar programs on
 *                  EV8, vector programs on T (EV8 core bound)
 * memory_kernels   Table 4 and gather/stride kernels on T (Vbox,
 *                  slicer, L2 and Zbox bound; fast-forward skips <1%)
 * fuzz_campaign    a seeded differential campaign, sim::buildCampaign
 *                  over four variants x three engine modes (per-job
 *                  set-up, snapshots and records dominate)
 *
 * Every job's inputs are fixed (the kernels' by the workload
 * registry, the campaign's by its fixed generator seeds); the benchmark
 * seed permutes the order of the jobs, or of the campaign's points,
 * within a pass.
 */

#ifndef PERFBENCH_JOB_SETS_HH
#define PERFBENCH_JOB_SETS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/job.hh"

namespace perfbench
{

/** One workload's job list for one run. */
struct JobSet
{
    std::vector<tarantula::sim::Job> jobs;
    /**
     * Jobs per group: 3 for campaign points (stepped, fastforward,
     * resume of one program, which must agree byte for byte), 1 for
     * kernel jobs. Groups are contiguous in jobs.
     */
    std::size_t groupSize = 1;
};

/** Workload names accepted by jobSet(), in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The job list of @p workload for @p seed (throws on a bad name). */
JobSet jobSet(const std::string &workload, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_JOB_SETS_HH
