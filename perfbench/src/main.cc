/**
 * @file
 * perfbench: the simulator's host-speed benchmark.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--scratch DIR] [--launch-ns T]
 *   perfbench --self-test [--scratch DIR]
 *
 * Runs passes over workload W's job set (job_sets.hh) on one thread
 * until S seconds have gone by, then prints one JSON line:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones, medians over passes; with
 * --trace 1, untraced and traced passes alternate and the metrics are
 * the per-layer ones. README.md defines every metric.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "job_sets.hh"
#include "pass.hh"

namespace perfbench
{
int selfTest(const std::string &scratch_dir);
} // namespace perfbench

namespace
{

using namespace perfbench;
using Clock = std::chrono::steady_clock;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR] [--launch-ns T]\n"
                 "       perfbench --self-test [--scratch DIR]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseNumber(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end || text[0] == '-')
        usage((std::string("invalid number for ") + flag).c_str());
    return v;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Metrics in print order: name -> (value, unit). */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        order_.push_back(name);
        values_[name] = {value, unit};
    }

    void
    print(bool correct, std::uint64_t attempted, std::uint64_t failed) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (std::size_t i = 0; i < order_.size(); ++i) {
            const auto &[value, unit] = values_.at(order_[i]);
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", order_[i].c_str(), value, unit);
        }
        std::printf("}}\n");
    }

  private:
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, const char *>> values_;
};

/** Median over passes of f(pass). */
template <typename F>
double
medianOf(const std::vector<PassResult> &passes, F f)
{
    std::vector<double> v;
    for (const auto &p : passes)
        v.push_back(f(p));
    return median(v);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB -> MiB
}

/**
 * Σ over jobs of f(the job's phases) at the job's fastest pass; only
 * over the jobs the first pass drove traced when @p traced_only.
 */
template <typename F>
double
sumOfFastest(const std::vector<PassResult> &passes, F f,
             const std::vector<JobSample> *traced_only = nullptr)
{
    double sum = 0.0;
    for (std::size_t j = 0; j < passes.front().jobs.size(); ++j) {
        if (traced_only && !(*traced_only)[j].traced)
            continue;
        double best = f(passes.front().jobs[j].t);
        for (const auto &p : passes)
            best = std::min(best, f(p.jobs[j].t));
        sum += best;
    }
    return sum;
}

/**
 * The end-to-end metrics. Interference from other tenants of the host
 * only ever slows a job down, and in bursts of seconds that can cover
 * half a run, so each timing is the job set's time with every job at
 * its fastest pass: medians over passes drift with the bursts.
 */
void
endToEnd(const std::vector<PassResult> &passes, double setup_s,
         Metrics &m)
{
    const PassResult &first = passes.front();
    m.add("wall_s",
          sumOfFastest(passes, [](const Phases &t) { return t.total(); }),
          "s");
    m.add("sim_mcps",
          ratio(static_cast<double>(first.cycles),
                sumOfFastest(passes,
                             [](const Phases &t) { return t.run; })) /
              1e6,
          "Mcycles/s");
    m.add("func_mips",
          ratio(static_cast<double>(first.funcInsts),
                sumOfFastest(passes,
                             [](const Phases &t) { return t.func; })) /
              1e6,
          "Minsts/s");
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");

    std::fprintf(stderr, "perfbench: fastest-pass phases (s):");
    const std::pair<const char *, double Phases::*> phases[] = {
        {"build", &Phases::build},     {"init", &Phases::init},
        {"construct", &Phases::construct}, {"run", &Phases::run},
        {"check", &Phases::check},     {"record", &Phases::record},
        {"save", &Phases::save},       {"restore", &Phases::restore},
        {"func", &Phases::func}};
    for (const auto &[name, member] : phases) {
        std::fprintf(stderr, " %s %.4f", name,
                     sumOfFastest(passes, [member = member](const Phases &t) {
                         return t.*member;
                     }));
    }
    std::fprintf(stderr, "\n");
}

void
perLayer(const std::vector<PassResult> &plain,
         const std::vector<PassResult> &traced, Metrics &m)
{
    auto plainMedian = [&](const char *name, const char *unit, auto f) {
        m.add(name, medianOf(plain, f), unit);
    };
    auto tracedMedian = [&](const char *name, const char *unit, auto f) {
        m.add(name, medianOf(traced, f), unit);
    };
    auto perKinst = [](std::uint64_t allocs, std::uint64_t insts) {
        return ratio(static_cast<double>(allocs), insts / 1000.0);
    };

    plainMedian("workloads.build_s", "s",
                [](const PassResult &p) { return p.t.build; });
    plainMedian("workloads.init_s", "s",
                [](const PassResult &p) { return p.t.init; });
    plainMedian("workloads.check_s", "s",
                [](const PassResult &p) { return p.t.check; });
    plainMedian("system.construct_s", "s",
                [](const PassResult &p) { return p.t.construct; });
    plainMedian("system.run_s", "s",
                [](const PassResult &p) { return p.t.run; });
    plainMedian("system.steps", "count", [](const PassResult &p) {
        return static_cast<double>(p.steps);
    });
    plainMedian("system.ff_jumps", "count", [](const PassResult &p) {
        return static_cast<double>(p.ffJumps);
    });
    tracedMedian("system.horizon_s", "s",
                 [](const PassResult &p) { return p.layers.horizon; });
    tracedMedian("system.ff_s", "s",
                 [](const PassResult &p) { return p.layers.ff; });
    tracedMedian("ev8.cycle_s", "s",
                 [](const PassResult &p) { return p.layers.ev8; });
    tracedMedian("ev8.ns_per_inst", "ns", [](const PassResult &p) {
        return ratio(p.layers.ev8 * 1e9, static_cast<double>(p.tracedInsts));
    });
    tracedMedian("vbox.cycle_s", "s",
                 [](const PassResult &p) { return p.layers.vbox; });
    tracedMedian("cache.l2_cycle_s", "s",
                 [](const PassResult &p) { return p.layers.l2; });
    tracedMedian("mem.zbox_cycle_s", "s",
                 [](const PassResult &p) { return p.layers.zbox; });
    tracedMedian("ev8.allocs_per_kinst", "1/kinst", [&](const PassResult &p) {
        return perKinst(p.layers.ev8Allocs, p.tracedInsts);
    });
    tracedMedian("vbox.allocs_per_kinst", "1/kinst", [&](const PassResult &p) {
        return perKinst(p.layers.vboxAllocs, p.tracedInsts);
    });
    tracedMedian("cache.allocs_per_kinst", "1/kinst",
                 [&](const PassResult &p) {
                     return perKinst(p.layers.l2Allocs, p.tracedInsts);
                 });
    tracedMedian("mem.allocs_per_kinst", "1/kinst", [&](const PassResult &p) {
        return perKinst(p.layers.zboxAllocs, p.tracedInsts);
    });
    plainMedian("host.allocs_per_kinst", "1/kinst", [&](const PassResult &p) {
        return perKinst(p.t.runAllocs, p.insts);
    });
    plainMedian("exec.func_s", "s",
                [](const PassResult &p) { return p.t.func; });
    plainMedian("snap.save_s", "s",
                [](const PassResult &p) { return p.t.save; });
    plainMedian("snap.restore_s", "s",
                [](const PassResult &p) { return p.t.restore; });
    plainMedian("snap.bytes", "bytes", [](const PassResult &p) {
        return static_cast<double>(p.t.snapBytes);
    });
    plainMedian("sim.record_s", "s",
                [](const PassResult &p) { return p.t.record; });
    // The traced drive against System::run on the same jobs, each at
    // its fastest pass as in the end-to-end metrics.
    auto run = [](const Phases &t) { return t.run; };
    const std::vector<JobSample> &jobs = traced.front().jobs;
    m.add("trace.overhead_x",
          ratio(sumOfFastest(traced, run, &jobs),
                sumOfFastest(plain, run, &jobs)),
          "x");
}

/** Each job's counts, which repeat exactly run over run. */
void
printCounts(const JobSet &set, const PassResult &p)
{
    std::uint64_t cycles = 0, insts = 0, allocs = 0;
    for (std::size_t j = 0; j < set.jobs.size(); ++j) {
        cycles += p.fingerprints[j].first;
        insts += p.jobs[j].insts;
        allocs += p.jobs[j].t.runAllocs;
        if (set.groupSize == 1) {
            std::fprintf(stderr,
                         "perfbench: job %s: %llu cycles, %llu insts, "
                         "%llu allocations in System::run\n",
                         jobName(set.jobs[j]).c_str(),
                         static_cast<unsigned long long>(
                             p.fingerprints[j].first),
                         static_cast<unsigned long long>(p.jobs[j].insts),
                         static_cast<unsigned long long>(
                             p.jobs[j].t.runAllocs));
        }
    }
    std::fprintf(stderr,
                 "perfbench: %zu jobs: %llu cycles, %llu insts, %llu "
                 "allocations in System::run\n",
                 set.jobs.size(), static_cast<unsigned long long>(cycles),
                 static_cast<unsigned long long>(insts),
                 static_cast<unsigned long long>(allocs));
}

void
printPass(const char *kind, std::size_t index, const PassResult &p)
{
    std::fprintf(stderr,
                 "perfbench: %s pass %zu: wall %.3f s, run %.3f s, "
                 "%.3f Mcycles/s, setup %.3f s, %llu/%llu failed\n",
                 kind, index, p.wall, p.t.run,
                 ratio(static_cast<double>(p.cycles), p.t.run) / 1e6,
                 p.t.setup(), static_cast<unsigned long long>(p.failed),
                 static_cast<unsigned long long>(p.attempted));
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto main_start = Clock::now();
    std::string workload;
    std::uint64_t seed = 0, seconds = 0, trace = 0, launch_ns = 0;
    bool have_seed = false, have_seconds = false, have_trace = false;
    bool self_test = false;
    std::string scratch = ".perfbench_tmp";

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            workload = value();
        } else if (a == "--seed") {
            seed = parseNumber("--seed", value());
            have_seed = true;
        } else if (a == "--seconds") {
            seconds = parseNumber("--seconds", value());
            have_seconds = true;
        } else if (a == "--trace") {
            trace = parseNumber("--trace", value());
            have_trace = true;
        } else if (a == "--scratch") {
            scratch = value();
        } else if (a == "--launch-ns") {
            launch_ns = parseNumber("--launch-ns", value());
        } else if (a == "--self-test") {
            self_test = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }

    const std::string run_dir =
        scratch + "/perfbench-" + std::to_string(::getpid());
    std::filesystem::create_directories(run_dir);
    struct RemoveDir
    {
        std::string path;
        ~RemoveDir()
        {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    } cleanup{run_dir};

    if (self_test)
        return selfTest(run_dir);
    if (workload.empty() || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (trace > 1)
        usage("--trace takes 0 or 1");
    if (seconds < 1)
        usage("--seconds must be at least 1");
    if (std::find(workloadNames().begin(), workloadNames().end(),
                  workload) == workloadNames().end())
        usage(("unknown workload " + workload).c_str());

    // Set-up from the process's launch: the launcher passes its
    // steady-clock reading (CLOCK_MONOTONIC) taken just before exec.
    double launch_s = 0.0;
    if (launch_ns) {
        const auto main_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                main_start.time_since_epoch())
                .count();
        if (static_cast<std::uint64_t>(main_ns) > launch_ns)
            launch_s = (main_ns - launch_ns) / 1e9;
    }
    const JobSet set = jobSet(workload, seed);
    const double list_s =
        std::chrono::duration<double>(Clock::now() - main_start).count();

    std::vector<PassResult> plain, traced;
    std::vector<Fingerprint> reference;
    std::uint64_t attempted = 0, failed = 0;
    bool wrong = false;
    auto account = [&](const PassResult &p) {
        attempted += p.attempted;
        failed += p.failed;
        wrong = wrong || p.wrong;
    };

    PassOptions plain_opt;
    plain_opt.scratchDir = run_dir;
    // The kernel sets have no resume leg; in the traced run a snapshot
    // round trip after each job times the snap layer instead.
    plain_opt.snapRoundTrip = trace && set.groupSize == 1;

    const auto start = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    do {
        plain.push_back(runPass(set, plain_opt));
        printPass("untraced", plain.size() - 1, plain.back());
        account(plain.back());
        if (plain.size() == 1) {
            reference = plain.front().fingerprints;
            printCounts(set, plain.front());
            plain_opt.reference = &reference;
        }
        if (trace) {
            PassOptions t_opt;
            t_opt.traced = true;
            t_opt.scratchDir = run_dir;
            t_opt.reference = &reference;
            traced.push_back(runPass(set, t_opt));
            printPass("traced", traced.size() - 1, traced.back());
            account(traced.back());
        }
    } while (elapsed() < static_cast<double>(seconds));

    Metrics m;
    if (trace) {
        perLayer(plain, traced, m);
    } else {
        endToEnd(plain, launch_s + list_s + plain.front().t.setup(), m);
    }
    m.print(!wrong, attempted, failed);
    return 0;
}
