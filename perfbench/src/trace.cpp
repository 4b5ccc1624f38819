// Span recording, process counters and the Executor-seam hooks.
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <fstream>

#include "bench.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

// The innermost open span and its operation on this thread: the parent
// and op of the next span opened here.
thread_local std::uint64_t t_span = 0;
thread_local std::uint64_t t_op = 0;
thread_local void* t_buffer = nullptr;

}  // namespace

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

bool reset_peak_rss() {
  malloc_trim(0);
  // "5" resets the high-water mark to the current resident set.
  int fd = open("/proc/self/clear_refs", O_WRONLY);
  bool ok = fd >= 0 && write(fd, "5", 1) == 1;
  if (fd >= 0) close(fd);
  return ok;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw Error("no VmHWM in /proc/self/status");
}

// --------------------------------------------------------------- Tracer

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t op)
    : tracer_(tracer), name_(name) {
  if (!tracer_) return;
  id_ = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  saved_span_ = t_span;
  saved_op_ = t_op;
  op_ = op != 0 ? op : t_op;
  t_span = id_;
  t_op = op_;
  start_ns_ = now_ns();
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  std::int64_t end = now_ns();
  t_span = saved_span_;
  t_op = saved_op_;
  tracer_->push({name_, start_ns_, end, id_, saved_span_, op_, 0});
}

Tracer::Buffer& Tracer::local() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->tid = static_cast<std::uint32_t>(buffers_.size());
    t_buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(t_buffer);
}

void Tracer::push(Span s) {
  Buffer& b = local();
  s.tid = b.tid;
  b.spans.push_back(s);
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns) {
  if (!enabled_) return;
  std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  push({name, start_ns, end_ns, id, t_span, t_op, 0});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void Tracer::write_chrome(const fs::path& path) const {
  std::vector<Span> all = spans();
  std::int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  for (const auto& s : all) t0 = std::min(t0, s.start_ns);
  std::ofstream out(path);
  if (!out) throw Error("cannot write trace '" + path.string() + "'");
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char line[320];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"op\":%llu}}%s\n",
                  s.name, s.tid, static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op),
                  i + 1 < all.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans,
                                             std::int64_t since_ns) {
  std::map<std::string, LayerTime> out;
  for (const auto& s : spans) {
    if (s.start_ns < since_ns) continue;
    LayerTime& t = out[s.name];
    ++t.calls;
    t.total_ns += s.end_ns - s.start_ns;
  }
  return out;
}

// ------------------------------------------------------- executor hooks

api::FindDesignResult CallbackExecutor::run(const api::FindDesignRequest& r) {
  return std::get<api::FindDesignResult>(fn_(r));
}
api::SweepResult CallbackExecutor::run(const api::SweepRequest& r) {
  return std::get<api::SweepResult>(fn_(r));
}
api::GridResult CallbackExecutor::run(const api::GridRequest& r) {
  return std::get<api::GridResult>(fn_(r));
}
api::InjectResult CallbackExecutor::run(const api::InjectRequest& r) {
  return std::get<api::InjectResult>(fn_(r));
}
api::RankGatesResult CallbackExecutor::run(const api::RankGatesRequest& r) {
  return std::get<api::RankGatesResult>(fn_(r));
}
api::StaResult CallbackExecutor::run(const api::StaRequest& r) {
  return std::get<api::StaResult>(fn_(r));
}

std::shared_ptr<api::Executor> timing_executor(
    std::vector<StaExecution>* log, const std::size_t* current_case) {
  // Span names are the executor-seam layer names, by request kind.
  static constexpr const char* kSpan[] = {"hls.find_design", "hls.sweep",
                                          "hls.grid",        "ser.inject",
                                          "ser.rank_gates",  "sta.request"};
  auto local = std::make_shared<api::LocalExecutor>();
  return std::make_shared<CallbackExecutor>(
      [local, log, current_case](const api::Request& req) {
        std::int64_t start = now_ns();
        api::Result res = local->Executor::run(req);
        std::int64_t end = now_ns();
        tracer().record(kSpan[req.index()], start, end);
        if (tracer().enabled()) {
          if (const auto* sta = std::get_if<api::StaRequest>(&req)) {
            log->push_back({*current_case, *sta});
          }
        }
        return res;
      });
}

std::vector<api::Request> capture_requests(
    const scenario::Scenario& scn, const std::vector<api::Result>& known) {
  std::vector<api::Request> seen;
  api::SessionOptions so;
  so.enable_cache = false;
  so.executor = std::make_shared<CallbackExecutor>(
      [&seen, &known](const api::Request& req) {
        if (seen.size() >= known.size()) {
          throw Error("capture_requests: more requests than known results");
        }
        seen.push_back(req);
        return known[seen.size() - 1];
      });
  api::Session session(so);
  scenario::run(scn, session);
  return seen;
}

std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed);
  rng.shuffle(order);
  return order;
}

}  // namespace perfbench
