#include "bench.hpp"

#include <dirent.h>
#include <unistd.h>

#include <sstream>
#include <unordered_map>

namespace perfbench {

std::map<std::string, Tracer::Totals> Tracer::reduce() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
    for (const auto& s : spans_) {
        if (s.parent) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::map<std::string, Totals> out;
    for (const auto& s : spans_) {
        const double dur = static_cast<double>(s.end_ns - s.start_ns);
        double covered = 0;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t cur_lo = 0, cur_hi = -1;
            auto flush = [&] {
                if (cur_hi > cur_lo) {
                    covered += static_cast<double>(std::min(cur_hi, s.end_ns) -
                                                   std::max(cur_lo, s.start_ns));
                }
            };
            for (const auto& [lo, hi] : iv) {
                if (lo > cur_hi) {
                    flush();
                    cur_lo = lo;
                    cur_hi = hi;
                } else {
                    cur_hi = std::max(cur_hi, hi);
                }
            }
            flush();
        }
        Totals& t = out[s.name];
        ++t.count;
        t.total_ns += dur;
        t.self_ns += std::max(0.0, dur - covered);
    }
    return out;
}

void Tracer::write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream f(path);
    for (const auto& s : spans_) {
        f << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
}

namespace {

std::uint64_t status_field(const char* key) {
    std::ifstream f("/proc/self/status");
    std::string line;
    const std::string k = std::string(key) + ":";
    while (std::getline(f, line)) {
        if (line.rfind(k, 0) == 0) return std::stoull(line.substr(k.size()));
    }
    return 0;
}

}  // namespace

double peak_rss_mb() { return static_cast<double>(status_field("VmHWM")) / 1024.0; }
std::uint64_t os_threads() { return status_field("Threads"); }

std::uint64_t socket_fds() {
    std::uint64_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator("/proc/self/fd")) {
        std::error_code ec;
        auto target = std::filesystem::read_symlink(e.path(), ec);
        if (!ec && target.string().rfind("socket:", 0) == 0) ++n;
    }
    return n;
}

std::uint64_t io_wchar() {
    std::ifstream f("/proc/self/io");
    std::string key;
    std::uint64_t v = 0;
    while (f >> key >> v) {
        if (key == "wchar:") return v;
    }
    return 0;
}

std::uint64_t dir_bytes(const std::filesystem::path& p) {
    std::uint64_t n = 0;
    std::error_code ec;
    for (auto it = std::filesystem::recursive_directory_iterator(p, ec);
         !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
        if (it->is_regular_file(ec)) n += it->file_size(ec);
    }
    return n;
}

std::uint64_t runnable_threads() {
    std::uint64_t n = 0;
    DIR* d = opendir("/proc/self/task");
    if (!d) return 0;
    while (dirent* e = readdir(d)) {
        if (e->d_name[0] == '.') continue;
        std::ifstream f(std::string("/proc/self/task/") + e->d_name + "/stat");
        std::string stat;
        std::getline(f, stat);
        const auto rp = stat.rfind(')');
        if (rp != std::string::npos && rp + 2 < stat.size() && stat[rp + 2] == 'R') ++n;
    }
    closedir(d);
    return n;
}

Census::Census() {
    thread_ = std::thread([this] {
        for (std::uint64_t i = 0; running_.load(); ++i) {
            // The sampler itself is running while it looks; do not count it.
            const auto r = runnable_threads();
            runnable_.push_back(r > 0 ? r - 1 : 0);
            if (i % 10 == 0) {
                threads_ = std::max(threads_, os_threads());
                sockets_ = std::max(sockets_, socket_fds());
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });
}

Census::~Census() {
    running_ = false;
    if (thread_.joinable()) thread_.join();
}

void Census::stop(RunResult& r, unsigned nproc) {
    running_ = false;
    if (thread_.joinable()) thread_.join();
    std::vector<double> v(runnable_.begin(), runnable_.end());
    std::sort(v.begin(), v.end());
    auto pct = [&](std::size_t num) {
        return v.empty() ? 0.0 : v[std::min(v.size() - 1, v.size() * num / 10)];
    };
    const double p50 = pct(5), p90 = pct(9);
    r.info["runnable_threads_p50"] = p50;
    r.info["runnable_threads_p90"] = p90;
    r.info["runnable_threads_max"] = v.empty() ? 0.0 : v.back();
    r.info["os_threads_max"] = threads_;
    r.info["socket_fds_max"] = sockets_;
    r.info["census_samples"] = static_cast<std::uint64_t>(v.size());
    if (p50 > nproc) {
        r.valid = false;
        r.info["invalid_reason"] = "busy threads (median runnable " + std::to_string(p50) +
                                   ") > nproc " + std::to_string(nproc);
    }
    r.put("bench.busy_threads", p50, "count");
    r.put("rpc.threads", static_cast<double>(threads_), "count");
    r.put("rpc.connections", static_cast<double>(sockets_), "count");
}

}  // namespace perfbench
