#include "query/client.hpp"

#include "serial/archive.hpp"

namespace hep::query {

using proto::CloseReq;
using proto::CloseResp;
using proto::NextReq;
using proto::OpenReq;
using proto::OpenResp;
using proto::Page;

void QueryClient::resolve_target(std::string& server, rpc::ProviderId& provider,
                                 std::string& db) const {
    const auto& fo = handle_.failover();
    if (fo) {
        // Scans go to primaries only: a backup may lag mid-replication and a
        // selection must see every event exactly once.
        const replica::Target& t = fo->target(fo->primary());
        server = t.server;
        provider = t.provider;
        db = t.db;
    } else {
        server = handle_.server();
        provider = handle_.provider();
        db = handle_.name();
    }
}

std::chrono::milliseconds QueryClient::deadline() const noexcept {
    const auto& fo = handle_.failover();
    return std::chrono::milliseconds{fo ? fo->policy().deadline_ms : 0};
}

qos::QosTag QueryClient::scan_tag() const {
    const auto& q = handle_.qos();
    return q ? q->scan_tag() : qos::QosTag{};
}

Status QueryClient::run(const proto::QuerySpec& spec, std::string_view prefix,
                        std::vector<proto::Entry>& out, ClientStats& stats,
                        const QueryOptions& options) const {
    const auto& fo = handle_.failover();
    std::string resume;  // resume_key of the last page safely received
    std::uint32_t reopens = 0;
    bool columnar = options.columnar;
    // The snapshot this selection reads through. Starts as the caller's pin
    // (possibly empty = "server pins at open"); after the first open it is
    // the server's effective pin, and every re-open sends it back so cursor
    // loss never upgrades the scan to a later version.
    yokan::proto::ReadPin pin = options.pin;

    while (true) {
        std::string server, db;
        rpc::ProviderId provider = 0;
        resolve_target(server, provider, db);

        OpenReq open;
        open.db = db;
        open.prefix = std::string(prefix);
        open.resume_after = resume;
        open.spec = spec;
        open.page_entries = options.page_entries;
        open.scan_chunk = options.scan_chunk;
        open.columnar = columnar ? 1 : 0;
        open.pin = pin;

        auto opened =
            engine_->forward<OpenReq, OpenResp>(server, "query_open", provider, open, deadline(),
                                                scan_tag());
        if (!opened.ok()) {
            if (columnar && opened.status().code() == StatusCode::kUnimplemented &&
                resume.empty()) {
                // Old service without the columnar knob: fall back to the
                // blob scan, transparently. Only from a clean start — a
                // columnar resume key is phase-tagged and means nothing to a
                // blob cursor.
                columnar = false;
                ++stats.columnar_fallbacks;
                continue;
            }
            if (fo && replica::FailoverState::retryable(opened.status().code()) &&
                reopens < options.max_reopens) {
                fo->count_retry();
                fo->promote(fo->primary());
                fo->backoff(reopens++);
                ++stats.resumes;
                continue;
            }
            return opened.status();
        }
        std::uint64_t cursor = opened->cursor;
        pin = opened->pin;

        bool reopen = false;
        while (!reopen) {
            auto page = engine_->forward<NextReq, Page>(server, "query_next", provider,
                                                        NextReq{db, cursor}, deadline(),
                                                        scan_tag());
            if (!page.ok()) {
                StatusCode code = page.status().code();
                // A lost cursor (restart, eviction) or a dead primary both
                // recover the same way: re-open with resume_after. Pages are
                // only accounted once fully received, so this neither skips
                // nor duplicates entries.
                bool lost_cursor = code == StatusCode::kNotFound;
                bool transport = replica::FailoverState::retryable(code);
                if ((lost_cursor || transport) && reopens < options.max_reopens) {
                    if (transport && fo) {
                        fo->count_retry();
                        fo->promote(fo->primary());
                        fo->backoff(reopens);
                    }
                    ++reopens;
                    ++stats.resumes;
                    reopen = true;
                    continue;
                }
                return page.status();
            }
            ++stats.pages;
            stats.entries += page->entries.size();
            stats.bytes_received += serial::serialized_size(*page);
            stats.events_examined += page->events_examined;
            stats.rows_examined += page->rows_examined;
            stats.bytes_scanned += page->bytes_scanned;
            stats.chunks_scanned += page->chunks_scanned;
            stats.bytes_decompressed += page->bytes_decompressed;
            resume = page->resume_key;
            for (auto& e : page->entries) out.push_back(std::move(e));
            if (page->done) return Status::OK();
        }
    }
}

Result<std::vector<proto::Entry>> QueryEngine::run(const proto::QuerySpec& spec,
                                                   std::string_view prefix, std::size_t offset,
                                                   std::size_t stride, ClientStats& stats,
                                                   const QueryOptions& options,
                                                   const std::vector<yokan::proto::ReadPin>*
                                                       pins) const {
    if (stride == 0) return Status::InvalidArgument("stride must be > 0");
    if (pins != nullptr && pins->size() != dbs_.size()) {
        return Status::InvalidArgument("need one pin per product database");
    }
    std::vector<proto::Entry> out;
    for (std::size_t i = offset; i < dbs_.size(); i += stride) {
        QueryClient client(*engine_, dbs_[i]);
        QueryOptions opts = options;
        if (pins != nullptr) opts.pin = (*pins)[i];
        Status st = client.run(spec, prefix, out, stats, opts);
        if (!st.ok()) return st;
    }
    return out;
}

}  // namespace hep::query
