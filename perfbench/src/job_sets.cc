#include "job_sets.hh"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "sim/fuzz_campaign.hh"

namespace perfbench
{

using tarantula::sim::Job;

namespace
{

/**
 * Campaign make-up: generator seeds per pass, each x4 variants x3
 * engine modes. A resume leg snapshots only when its stop cycle falls
 * inside the program, which the seed-derived stop cycle does for ~2.5%
 * of seeds, at ~50x the cost of the rest of the point; left to chance,
 * that share alone swings a pass's host time by 2x from one seed window
 * to the next. So the campaign takes a fixed number of seeds from each
 * side: ResumeSeeds whose stop cycle is so early that every variant
 * snapshots mid-run, StraightSeeds whose stop cycle is past the end of
 * any generated program. Even with the snapshots fixed, 48 programs'
 * lengths vary enough to double the spread between runs on different
 * seed windows, so the generator seeds are fixed and the benchmark
 * seed permutes the points instead.
 */
constexpr std::size_t StraightSeeds = 46;
constexpr std::size_t ResumeSeeds = 2;
constexpr std::uint64_t EarlyStop = 300;      ///< generated programs run longer
constexpr std::uint64_t LateStop = 20000;     ///< generated programs end sooner

Job
kernelJob(const std::string &machine, const std::string &workload)
{
    Job job;
    job.machine = machine;
    job.workload = workload;
    return job;
}

/** The campaign's points, each the 3 mode jobs of one variant. */
std::vector<std::vector<Job>>
campaignPoints()
{
    std::vector<std::vector<Job>> points;
    std::size_t n_straight = 0, n_resume = 0;
    for (std::uint64_t g = 1;
         n_straight < StraightSeeds || n_resume < ResumeSeeds; ++g) {
        tarantula::sim::CampaignOptions opt;
        opt.seedLo = opt.seedHi = g;
        const std::vector<Job> jobs = tarantula::sim::buildCampaign(opt);
        const std::uint64_t stop = jobs.at(2).selfResumeAt;
        if (stop <= EarlyStop && n_resume < ResumeSeeds) {
            ++n_resume;
        } else if (stop > LateStop && n_straight < StraightSeeds) {
            ++n_straight;
        } else {
            continue;
        }
        for (std::size_t i = 0; i < jobs.size(); i += 3)
            points.emplace_back(jobs.begin() + i, jobs.begin() + i + 3);
    }
    return points;
}

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "compute_kernels", "memory_kernels", "fuzz_campaign"};
    return names;
}

JobSet
jobSet(const std::string &workload, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    if (workload == "compute_kernels") {
        // The EV8 pair (~1.2 s) and the six T kernels (~0.6 s) keep
        // each machine's share of a pass above a third.
        std::vector<Job> jobs{kernelJob("EV8", "swim"),
                              kernelJob("EV8", "art")};
        for (const char *w : {"dgemm", "fft", "lu", "moldyn", "swim", "art"})
            jobs.push_back(kernelJob("T", w));
        std::shuffle(jobs.begin(), jobs.end(), rng);
        return JobSet{std::move(jobs), 1};
    }
    if (workload == "memory_kernels") {
        std::vector<Job> jobs;
        for (const char *w :
             {"copy", "rndcopy", "rndmemscale", "radix", "swim_naive"})
            jobs.push_back(kernelJob("T", w));
        std::shuffle(jobs.begin(), jobs.end(), rng);
        return JobSet{std::move(jobs), 1};
    }
    if (workload == "fuzz_campaign") {
        std::vector<std::vector<Job>> points = campaignPoints();
        std::shuffle(points.begin(), points.end(), rng);
        JobSet set{{}, 3};
        for (const auto &point : points)
            set.jobs.insert(set.jobs.end(), point.begin(), point.end());
        return set;
    }
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

} // namespace perfbench
