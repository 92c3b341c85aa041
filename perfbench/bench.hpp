// Shared pieces of the benchmark program: timing, the log-linear latency
// histogram, the span tracer, /proc probes and the result record.
//
// Everything here lives in the benchmark, not in src/: the tool that
// measures the program must not change when the program does.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"


namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Thrown when an output check fails: the run reports nothing.
struct CheckFailed : std::runtime_error {
    using std::runtime_error::runtime_error;
};
inline void check(bool ok, const std::string& what) {
    if (!ok) throw CheckFailed(what);
}

/// A number of a workloads.json section; a missing key is an error.
inline double cfg_num(const hep::json::Value& section, std::string_view key) {
    const auto& v = section[key];
    if (!v.is_number()) {
        throw std::runtime_error("workloads.json: no number '" + std::string(key) + "'");
    }
    return v.as_double();
}
/// An object of a workloads.json section; a missing key is an error.
inline const hep::json::Value& cfg_obj(const hep::json::Value& section, std::string_view key) {
    const auto& v = section[key];
    if (!v.is_object()) {
        throw std::runtime_error("workloads.json: no object '" + std::string(key) + "'");
    }
    return v;
}

// ---- statistics ----------------------------------------------------------

inline double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The q-quantile of v by nearest rank; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Log-linear histogram of non-negative integer samples (ns): values below 64
/// are exact; above, each power of two is split into 32 linear sub-buckets,
/// so any quantile is within 1/64 of its magnitude. Quantiles report the
/// bucket midpoint, capped at the largest sample.
class Histogram {
  public:
    void record(std::int64_t v) {
        if (v < 0) v = 0;
        ++counts_[index_of(static_cast<std::uint64_t>(v))];
        ++n_;
        max_ = std::max<std::uint64_t>(max_, static_cast<std::uint64_t>(v));
    }
    void merge(const Histogram& o) {
        for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
        n_ += o.n_;
        max_ = std::max(max_, o.max_);
    }
    [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
    /// Value at quantile q in [0,1]; 0 when empty.
    [[nodiscard]] double quantile(double q) const {
        if (n_ == 0) return 0;
        const auto rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_))));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            seen += counts_[i];
            if (seen >= rank) return std::min(midpoint(i), static_cast<double>(max_));
        }
        return static_cast<double>(max_);
    }

  private:
    static constexpr std::size_t kBuckets = 64 + 32 * 58;
    static std::size_t index_of(std::uint64_t v) {
        if (v < 64) return static_cast<std::size_t>(v);
        const int shift = (63 - __builtin_clzll(v)) - 5;  // v >> shift in [32, 64)
        return 64 + static_cast<std::size_t>(shift - 1) * 32 +
               static_cast<std::size_t>((v >> shift) - 32);
    }
    static double midpoint(std::size_t i) {
        if (i < 64) return static_cast<double>(i);
        const std::size_t k = i - 64;
        const std::size_t shift = k / 32 + 1;
        const double lo = static_cast<double>((k % 32 + 32) << shift);
        return lo + static_cast<double>(1ull << shift) / 2.0;
    }
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t n_ = 0;
    std::uint64_t max_ = 0;
};

// ---- tracing -------------------------------------------------------------

/// Spans kept in memory and reduced to per-name self time at the end of a
/// traced run. Parents are passed explicitly (ULTs migrate between threads,
/// so no thread-local span stack).
class Tracer {
  public:
    struct SpanRec {
        std::uint32_t id;
        std::uint32_t parent;  // 0 = root
        std::uint64_t request;
        const char* name;
        std::int64_t start_ns;
        std::int64_t end_ns;
    };

    explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    std::uint32_t open() { return enabled_ ? next_.fetch_add(1) : 0; }
    void close(std::uint32_t id, std::uint32_t parent, std::uint64_t request, const char* name,
               Clock::time_point start, Clock::time_point end) {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({id, parent, request, name, ns_between(t0_, start),
                          ns_between(t0_, end)});
    }

    /// Per-name totals: count, total duration and self time (duration minus
    /// the part of it covered by child spans), in ns.
    struct Totals {
        std::uint64_t count = 0;
        double total_ns = 0;
        double self_ns = 0;
    };
    [[nodiscard]] std::map<std::string, Totals> reduce() const;

    /// Write every span as JSON lines to `path`.
    void write(const std::string& path) const;

  private:
    bool enabled_;
    Clock::time_point t0_;
    std::atomic<std::uint32_t> next_{1};
    mutable std::mutex mutex_;
    std::vector<SpanRec> spans_;
};

/// RAII span; free when the tracer is disabled.
class Span {
  public:
    Span(Tracer& t, const char* name, std::uint32_t parent = 0, std::uint64_t request = 0)
        : t_(t), name_(name), parent_(parent), request_(request), id_(t.open()) {
        if (id_) start_ = Clock::now();
    }
    ~Span() {
        if (id_) t_.close(id_, parent_, request_, name_, start_, Clock::now());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

  private:
    Tracer& t_;
    const char* name_;
    std::uint32_t parent_;
    std::uint64_t request_;
    std::uint32_t id_;
    Clock::time_point start_{};
};

// ---- /proc probes --------------------------------------------------------

double peak_rss_mb();
std::uint64_t os_threads();
std::uint64_t socket_fds();
std::uint64_t io_wchar();
std::uint64_t dir_bytes(const std::filesystem::path& p);

/// Threads of this process currently in state R (running or runnable).
std::uint64_t runnable_threads();

// ---- the run record ------------------------------------------------------

struct Metric {
    double value = 0;
    std::string unit;
};

struct RunResult {
    bool valid = true;  // false: the run measured the scheduler, not the program;
                        // reported beside the result, never folded into `correct`
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> end_to_end;  // generic slots, for the JSON line
    std::map<std::string, Metric> named;       // the workload's own metric names
    std::map<std::string, Metric> layer;       // per-layer metrics (traced run)
    hep::json::Value info = hep::json::Value::make_object();

    void e2e(const std::string& slot, const std::string& name, double v, const char* unit) {
        end_to_end[slot] = {v, unit};
        named[name] = {v, unit};
    }
    void put(const std::string& name, double v, const char* unit) { layer[name] = {v, unit}; }
};

/// Every workload sets up this many times and reports the median as setup_s.
constexpr int kSetupRepeats = 5;

/// Options common to every workload.
struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work_dir;   // scratch for lsm directories and HTF files
    hep::json::Value cfg;   // this workload's section of workloads.json: its
                            // deployment and data sizes (run parameters are
                            // constants in the workload's own file)
    unsigned nproc = 4;
};

RunResult run_select(const RunOptions& opt);
RunResult run_ingest(const RunOptions& opt);
RunResult run_serve(const RunOptions& opt);

/// Steady-state census of a measured window: a sampler thread counts the
/// runnable (state R) threads of this process every 20 ms, and every 200 ms
/// the OS threads and open sockets. stop() records the median runnable count
/// as the busy-thread figure (p90 and max go to the record) and marks the
/// run invalid when it exceeds `nproc`: the numbers would then measure the
/// scheduler.
class Census {
  public:
    Census();
    ~Census();
    void stop(RunResult& r, unsigned nproc);

  private:
    std::atomic<bool> running_{true};
    std::vector<std::uint64_t> runnable_;
    std::uint64_t threads_ = 0, sockets_ = 0;
    std::thread thread_;
};

}  // namespace perfbench
