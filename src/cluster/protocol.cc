#include "cluster/protocol.h"

namespace zeus::cluster {

namespace {

constexpr int kMaxFamily = static_cast<int>(video::DatasetFamily::kKittiLike);
constexpr int kMaxStatusCode =
    static_cast<int>(common::StatusCode::kUnavailable);
constexpr int kMaxQueryState =
    static_cast<int>(engine::QueryState::kCancelled);
constexpr int kMaxConsistency =
    static_cast<int>(engine::Consistency::kDegraded);
constexpr int kMaxTier = static_cast<int>(core::QueryTier::kBestEffort);

void EncodeHist(net::WireWriter* w, const engine::HistogramStats& h) {
  w->I64(h.count);
  w->F64(h.sum_seconds);
  for (long b : h.buckets) w->I64(b);
}

bool DecodeHist(net::WireReader* r, engine::HistogramStats* h) {
  int64_t count = 0;
  if (!r->I64(&count) || !r->F64(&h->sum_seconds)) return false;
  h->count = count;
  for (size_t i = 0; i < engine::HistogramStats::kNumBuckets; ++i) {
    int64_t b = 0;
    if (!r->I64(&b)) return false;
    h->buckets[i] = b;
  }
  return true;
}

void EncodeCounters(net::WireWriter* w, const engine::ServingCounters& c) {
  w->I64(c.queue_depth);
  w->I64(c.active);
  w->I64(c.peak_queue_depth);
  w->I64(c.submitted);
  w->I64(c.completed);
  w->I64(c.failed);
  w->I64(c.cancelled);
  w->I64(c.rejected);
  w->I64(c.drains);
  w->I64(c.planner_runs);
  w->I64(c.cache_hits);
  w->I64(c.disk_loads);
  w->I64(c.degrade_level);
  w->I64(c.band_degraded);
  w->F64(c.degraded_band_seconds);
  w->U32(static_cast<uint32_t>(c.band_plan_hits.size()));
  for (const auto& [band, hits] : c.band_plan_hits) {
    w->I64(band);
    w->I64(hits);
  }
  w->I64(c.confidence.count);
  w->F64(c.confidence.sum);
  for (long b : c.confidence.buckets) w->I64(b);
  EncodeHist(w, c.queue_wait);
  EncodeHist(w, c.exec);
  // Live-stream counters (appended last; the histograms above anchor the
  // legacy prefix).
  w->I64(c.appends);
  w->I64(c.appended_frames);
  w->I64(c.subscribes);
  w->I64(c.unsubscribes);
  w->I64(c.stream_results);
  w->I64(c.stream_dropped);
  w->I64(c.feature_hits);
  w->I64(c.feature_misses);
  w->I64(c.feature_evictions);
}

bool DecodeCounters(net::WireReader* r, engine::ServingCounters* c) {
  int64_t v[14];
  for (auto& x : v) {
    if (!r->I64(&x)) return false;
  }
  c->queue_depth = v[0];
  c->active = v[1];
  c->peak_queue_depth = v[2];
  c->submitted = v[3];
  c->completed = v[4];
  c->failed = v[5];
  c->cancelled = v[6];
  c->rejected = v[7];
  c->drains = v[8];
  c->planner_runs = v[9];
  c->cache_hits = v[10];
  c->disk_loads = v[11];
  c->degrade_level = static_cast<int>(v[12]);
  c->band_degraded = v[13];
  if (!r->F64(&c->degraded_band_seconds)) return false;
  uint32_t bands = 0;
  if (!r->U32(&bands)) return false;
  // Each entry is 16 bytes — reject a lying header before allocating.
  if (bands > r->remaining() / 16) return false;
  c->band_plan_hits.clear();
  for (uint32_t i = 0; i < bands; ++i) {
    int64_t band = 0, hits = 0;
    if (!r->I64(&band) || !r->I64(&hits)) return false;
    c->band_plan_hits[band] = hits;
  }
  int64_t conf_count = 0;
  if (!r->I64(&conf_count) || !r->F64(&c->confidence.sum)) return false;
  c->confidence.count = conf_count;
  for (size_t i = 0; i < engine::ConfidenceStats::kNumBuckets; ++i) {
    int64_t b = 0;
    if (!r->I64(&b)) return false;
    c->confidence.buckets[i] = b;
  }
  if (!DecodeHist(r, &c->queue_wait) || !DecodeHist(r, &c->exec)) return false;
  int64_t s[9];
  for (auto& x : s) {
    if (!r->I64(&x)) return false;
  }
  c->appends = s[0];
  c->appended_frames = s[1];
  c->subscribes = s[2];
  c->unsubscribes = s[3];
  c->stream_results = s[4];
  c->stream_dropped = s[5];
  c->feature_hits = s[6];
  c->feature_misses = s[7];
  c->feature_evictions = s[8];
  return true;
}

}  // namespace

video::DatasetProfile ProfileFor(const DatasetSpec& spec) {
  video::DatasetProfile profile = video::DatasetProfile::ForFamily(spec.family);
  if (spec.num_videos > 0) {
    profile.num_videos = static_cast<int>(spec.num_videos);
  }
  if (spec.frames_per_video > 0) {
    profile.frames_per_video = static_cast<int>(spec.frames_per_video);
  }
  if (spec.native_resolution > 0) {
    profile.native_resolution = static_cast<int>(spec.native_resolution);
  }
  return profile;
}

std::string EncodeDatasetSpec(const DatasetSpec& spec) {
  net::WireWriter w;
  w.Str(spec.name);
  w.U8(static_cast<uint8_t>(spec.family));
  w.U64(spec.seed);
  w.U32(spec.num_videos);
  w.U32(spec.frames_per_video);
  w.U32(spec.native_resolution);
  w.U8(spec.warm_plans ? 1 : 0);
  w.U64(spec.epoch);
  return w.Take();
}

bool DecodeDatasetSpec(const std::string& payload, DatasetSpec* out) {
  net::WireReader r(payload);
  uint8_t family = 0, warm = 0;
  if (!r.Str(&out->name) || !r.U8(&family) || !r.U64(&out->seed) ||
      !r.U32(&out->num_videos) || !r.U32(&out->frames_per_video) ||
      !r.U32(&out->native_resolution) || !r.U8(&warm) ||
      !r.U64(&out->epoch)) {
    return false;
  }
  if (out->name.empty() || family > kMaxFamily) return false;
  out->family = static_cast<video::DatasetFamily>(family);
  out->warm_plans = warm != 0;
  return r.AtEnd();
}

std::string EncodeExecRequest(const ExecRequest& req) {
  net::WireWriter w;
  w.Str(req.dataset);
  w.Str(req.sql);
  w.I32(req.priority);
  w.U8(static_cast<uint8_t>(req.tier));
  w.F64(req.min_accuracy);
  w.F64(req.max_latency_budget);
  return w.Take();
}

bool DecodeExecRequest(const std::string& payload, ExecRequest* out) {
  net::WireReader r(payload);
  uint8_t tier = 0;
  if (!r.Str(&out->dataset) || !r.Str(&out->sql) || !r.I32(&out->priority) ||
      !r.U8(&tier) || !r.F64(&out->min_accuracy) ||
      !r.F64(&out->max_latency_budget)) {
    return false;
  }
  if (tier > kMaxTier) return false;
  out->tier = static_cast<core::QueryTier>(tier);
  return !out->dataset.empty() && r.AtEnd();
}

std::string EncodeQueryResult(const engine::QueryResult& result) {
  net::WireWriter w;
  w.U32(static_cast<uint32_t>(result.segments.size()));
  for (const auto& seg : result.segments) {
    w.I32(seg.video_id);
    w.I32(seg.start);
    w.I32(seg.end);
  }
  w.I64(result.metrics.tp);
  w.I64(result.metrics.fp);
  w.I64(result.metrics.fn);
  w.I64(result.metrics.tn);
  w.F64(result.metrics.precision);
  w.F64(result.metrics.recall);
  w.F64(result.metrics.f1);
  w.F64(result.throughput_fps);
  w.F64(result.gpu_seconds);
  w.F64(result.wall_seconds);
  w.F64(result.plan_seconds);
  w.Str(result.executor);
  w.Str(result.explanation);
  w.U8(static_cast<uint8_t>(result.consistency));
  w.Str(result.divergence);
  w.U64(result.epoch);
  w.F64(result.achieved_confidence);
  w.F64(result.accuracy_band);
  w.U8(static_cast<uint8_t>(result.tier));
  w.U8(result.budget_exhausted ? 1 : 0);
  w.I64(result.window_begin);
  w.I64(result.window_end);
  w.U64(result.frame_epoch);
  return w.Take();
}

bool DecodeQueryResult(const std::string& payload, engine::QueryResult* out) {
  net::WireReader r(payload);
  uint32_t n = 0;
  if (!r.U32(&n)) return false;
  // Segment count is bounded by the remaining bytes (12 per segment) —
  // reject before allocating on a lying header.
  if (n > payload.size() / 12) return false;
  out->segments.resize(n);
  for (auto& seg : out->segments) {
    if (!r.I32(&seg.video_id) || !r.I32(&seg.start) || !r.I32(&seg.end)) {
      return false;
    }
  }
  if (!r.I64(&out->metrics.tp) || !r.I64(&out->metrics.fp) ||
      !r.I64(&out->metrics.fn) || !r.I64(&out->metrics.tn) ||
      !r.F64(&out->metrics.precision) || !r.F64(&out->metrics.recall) ||
      !r.F64(&out->metrics.f1) || !r.F64(&out->throughput_fps) ||
      !r.F64(&out->gpu_seconds) || !r.F64(&out->wall_seconds) ||
      !r.F64(&out->plan_seconds) || !r.Str(&out->executor) ||
      !r.Str(&out->explanation)) {
    return false;
  }
  uint8_t consistency = 0;
  if (!r.U8(&consistency) || !r.Str(&out->divergence) || !r.U64(&out->epoch)) {
    return false;
  }
  if (consistency > kMaxConsistency) return false;
  out->consistency = static_cast<engine::Consistency>(consistency);
  // kCertain carries no divergence reason by contract.
  if (out->consistency == engine::Consistency::kCertain &&
      !out->divergence.empty()) {
    return false;
  }
  uint8_t tier = 0, budget_exhausted = 0;
  if (!r.F64(&out->achieved_confidence) || !r.F64(&out->accuracy_band) ||
      !r.U8(&tier) || !r.U8(&budget_exhausted)) {
    return false;
  }
  if (tier > kMaxTier || budget_exhausted > 1) return false;
  out->tier = static_cast<core::QueryTier>(tier);
  out->budget_exhausted = budget_exhausted != 0;
  int64_t window_begin = 0, window_end = 0;
  if (!r.I64(&window_begin) || !r.I64(&window_end) ||
      !r.U64(&out->frame_epoch)) {
    return false;
  }
  // The covered range is a well-formed, non-negative interval or absent
  // (both zero) — a stream consumer dedupes on it, so garbage here is a
  // reject, not a shrug.
  if (window_begin < 0 || window_end < window_begin) return false;
  out->window_begin = window_begin;
  out->window_end = window_end;
  return r.AtEnd();
}

std::string EncodeSyncPlans(const SyncPlansRequest& req) {
  net::WireWriter w;
  w.Str(req.name);
  w.U64(req.epoch);
  return w.Take();
}

bool DecodeSyncPlans(const std::string& payload, SyncPlansRequest* out) {
  net::WireReader r(payload);
  return r.Str(&out->name) && !out->name.empty() && r.U64(&out->epoch) &&
         r.AtEnd();
}

std::string EncodeSyncReply(const SyncReply& reply) {
  net::WireWriter w;
  w.U64(reply.plans_warmed);
  w.U64(reply.epoch);
  return w.Take();
}

bool DecodeSyncReply(const std::string& payload, SyncReply* out) {
  net::WireReader r(payload);
  return r.U64(&out->plans_warmed) && r.U64(&out->epoch) && r.AtEnd();
}

std::string EncodeEpochReply(const EpochReply& reply) {
  net::WireWriter w;
  w.U64(reply.epoch);
  w.U8(reply.has_dataset ? 1 : 0);
  w.U64(reply.stream_length);
  return w.Take();
}

bool DecodeEpochReply(const std::string& payload, EpochReply* out) {
  net::WireReader r(payload);
  uint8_t has = 0;
  if (!r.U64(&out->epoch) || !r.U8(&has) || !r.U64(&out->stream_length)) {
    return false;
  }
  if (has > 1) return false;
  out->has_dataset = has != 0;
  return r.AtEnd();
}

// ---- Live streams ----------------------------------------------------------

std::string EncodeAppendFrames(const AppendFramesRequest& req) {
  net::WireWriter w;
  w.Str(req.name);
  w.U64(req.target_frames);
  w.U64(req.relative_frames);
  w.U64(req.epoch);
  return w.Take();
}

bool DecodeAppendFrames(const std::string& payload, AppendFramesRequest* out) {
  net::WireReader r(payload);
  if (!r.Str(&out->name) || !r.U64(&out->target_frames) ||
      !r.U64(&out->relative_frames) || !r.U64(&out->epoch)) {
    return false;
  }
  // Exactly one of the two forms: absolute (target, epoch) or relative.
  if (out->name.empty()) return false;
  if (out->target_frames == 0 && out->relative_frames == 0) return false;
  if (out->target_frames != 0 && out->relative_frames != 0) return false;
  return r.AtEnd();
}

std::string EncodeAppendReply(const AppendReply& reply) {
  net::WireWriter w;
  w.U64(reply.frame_epoch);
  w.U64(reply.stream_length);
  w.U64(reply.appended);
  return w.Take();
}

bool DecodeAppendReply(const std::string& payload, AppendReply* out) {
  net::WireReader r(payload);
  return r.U64(&out->frame_epoch) && r.U64(&out->stream_length) &&
         r.U64(&out->appended) && out->appended <= out->stream_length &&
         r.AtEnd();
}

std::string EncodeSubscribeRequest(const SubscribeRequest& req) {
  net::WireWriter w;
  w.Str(req.dataset);
  w.Str(req.sql);
  w.U64(req.sub_id);
  w.I64(req.window_frames);
  w.U32(req.max_buffered);
  w.U8(static_cast<uint8_t>(req.tier));
  w.F64(req.min_accuracy);
  w.F64(req.max_latency_budget);
  return w.Take();
}

bool DecodeSubscribeRequest(const std::string& payload,
                            SubscribeRequest* out) {
  net::WireReader r(payload);
  uint8_t tier = 0;
  if (!r.Str(&out->dataset) || !r.Str(&out->sql) || !r.U64(&out->sub_id) ||
      !r.I64(&out->window_frames) || !r.U32(&out->max_buffered) ||
      !r.U8(&tier) || !r.F64(&out->min_accuracy) ||
      !r.F64(&out->max_latency_budget)) {
    return false;
  }
  // sub_id 0 is valid on the wire: a client subscribing THROUGH the router
  // sends 0 to let the router assign the id. The shard side rejects 0 in
  // its handler (its ids are always the caller's — that is what makes
  // re-attach idempotent).
  if (out->dataset.empty() || out->sql.empty() || out->window_frames < 0 ||
      tier > kMaxTier) {
    return false;
  }
  out->tier = static_cast<core::QueryTier>(tier);
  return r.AtEnd();
}

std::string EncodeSubscribeReply(const SubscribeReply& reply) {
  net::WireWriter w;
  w.U64(reply.sub_id);
  w.U64(reply.frame_epoch);
  w.U8(reply.attached_existing ? 1 : 0);
  return w.Take();
}

bool DecodeSubscribeReply(const std::string& payload, SubscribeReply* out) {
  net::WireReader r(payload);
  uint8_t attached = 0;
  if (!r.U64(&out->sub_id) || !r.U64(&out->frame_epoch) || !r.U8(&attached)) {
    return false;
  }
  if (out->sub_id == 0 || attached > 1) return false;
  out->attached_existing = attached != 0;
  return r.AtEnd();
}

std::string EncodeStreamPoll(const StreamPollRequest& req) {
  net::WireWriter w;
  w.U64(req.sub_id);
  w.U64(req.after_seq);
  w.U32(req.timeout_ms);
  return w.Take();
}

bool DecodeStreamPoll(const std::string& payload, StreamPollRequest* out) {
  net::WireReader r(payload);
  return r.U64(&out->sub_id) && out->sub_id != 0 && r.U64(&out->after_seq) &&
         r.U32(&out->timeout_ms) && r.AtEnd();
}

std::string EncodeStreamResult(const StreamResultMsg& msg) {
  net::WireWriter w;
  w.U64(msg.seq);
  w.U64(msg.dropped);
  w.Str(EncodeQueryResult(msg.result));
  return w.Take();
}

bool DecodeStreamResult(const std::string& payload, StreamResultMsg* out) {
  net::WireReader r(payload);
  std::string result;
  if (!r.U64(&out->seq) || out->seq == 0 || !r.U64(&out->dropped) ||
      !r.Str(&result) || !r.AtEnd()) {
    return false;
  }
  return DecodeQueryResult(result, &out->result);
}

std::string EncodeStatsReply(const StatsReply& reply) {
  net::WireWriter w;
  w.I32(reply.stats.shard);
  EncodeCounters(&w, reply.stats);
  w.U32(static_cast<uint32_t>(reply.stats.datasets.size()));
  for (const auto& ds : reply.stats.datasets) {
    w.Str(ds.dataset);
    w.I64(ds.queue_depth);
    w.I32(ds.weight);
    w.I64(ds.submitted);
    w.I64(ds.completed);
    w.I64(ds.failed);
    w.I64(ds.cancelled);
    w.I64(ds.rejected);
    EncodeHist(&w, ds.queue_wait);
    EncodeHist(&w, ds.exec);
  }
  w.I32(reply.num_shards);
  w.I64(reply.failovers);
  w.I64(reply.rehomed_datasets);
  w.I64(reply.dead_shards);
  w.I32(reply.replication);
  w.I64(reply.replicas_behind);
  w.I64(reply.read_failovers);
  w.I64(reply.certain_answers);
  w.I64(reply.degraded_answers);
  w.I64(reply.plan_resyncs);
  return w.Take();
}

bool DecodeStatsReply(const std::string& payload, StatsReply* out) {
  net::WireReader r(payload);
  if (!r.I32(&out->stats.shard)) return false;
  if (!DecodeCounters(&r, &out->stats)) return false;
  uint32_t n = 0;
  if (!r.U32(&n)) return false;
  if (n > payload.size() / 8) return false;  // each row is far larger
  out->stats.datasets.resize(n);
  for (auto& ds : out->stats.datasets) {
    int64_t qd = 0, sub = 0, comp = 0, fail = 0, canc = 0, rej = 0;
    if (!r.Str(&ds.dataset) || !r.I64(&qd) || !r.I32(&ds.weight) ||
        !r.I64(&sub) || !r.I64(&comp) || !r.I64(&fail) || !r.I64(&canc) ||
        !r.I64(&rej) || !DecodeHist(&r, &ds.queue_wait) ||
        !DecodeHist(&r, &ds.exec)) {
      return false;
    }
    ds.queue_depth = qd;
    ds.submitted = sub;
    ds.completed = comp;
    ds.failed = fail;
    ds.cancelled = canc;
    ds.rejected = rej;
  }
  if (!r.I32(&out->num_shards) || !r.I64(&out->failovers) ||
      !r.I64(&out->rehomed_datasets) || !r.I64(&out->dead_shards)) {
    return false;
  }
  if (!r.I32(&out->replication) || !r.I64(&out->replicas_behind) ||
      !r.I64(&out->read_failovers) || !r.I64(&out->certain_answers) ||
      !r.I64(&out->degraded_answers) || !r.I64(&out->plan_resyncs)) {
    return false;
  }
  return r.AtEnd();
}

std::string EncodeTicketId(uint64_t id) {
  net::WireWriter w;
  w.U64(id);
  return w.Take();
}

bool DecodeTicketId(const std::string& payload, uint64_t* id) {
  net::WireReader r(payload);
  return r.U64(id) && r.AtEnd();
}

std::string EncodeTicketState(const TicketStateReply& reply) {
  net::WireWriter w;
  w.U8(static_cast<uint8_t>(reply.state));
  w.F64(reply.progress);
  return w.Take();
}

bool DecodeTicketState(const std::string& payload, TicketStateReply* out) {
  net::WireReader r(payload);
  uint8_t state = 0;
  if (!r.U8(&state) || !r.F64(&out->progress)) return false;
  if (state > kMaxQueryState) return false;
  out->state = static_cast<engine::QueryState>(state);
  return r.AtEnd();
}

std::string EncodeRegisterReply(uint64_t plans_warmed) {
  net::WireWriter w;
  w.U64(plans_warmed);
  return w.Take();
}

bool DecodeRegisterReply(const std::string& payload, uint64_t* plans_warmed) {
  net::WireReader r(payload);
  return r.U64(plans_warmed) && r.AtEnd();
}

std::string EncodeName(const std::string& name) {
  net::WireWriter w;
  w.Str(name);
  return w.Take();
}

bool DecodeName(const std::string& payload, std::string* name) {
  net::WireReader r(payload);
  return r.Str(name) && !name->empty() && r.AtEnd();
}

net::Frame MakeReplyFrame(uint64_t request_id, net::FrameType type,
                          std::string payload) {
  net::Frame frame;
  frame.type = type;
  frame.request_id = request_id;
  frame.payload = std::move(payload);
  return frame;
}

net::Frame MakeErrorFrame(uint64_t request_id, const common::Status& status) {
  net::Frame frame;
  frame.type = net::FrameType::kError;
  frame.request_id = request_id;
  net::WireWriter w;
  w.U8(static_cast<uint8_t>(status.code()));
  w.Str(status.message());
  frame.payload = w.Take();
  return frame;
}

common::Status DecodeErrorFrame(const net::Frame& frame) {
  net::WireReader r(frame.payload);
  uint8_t code = 0;
  std::string message;
  if (!r.U8(&code) || !r.Str(&message) || code > kMaxStatusCode || code == 0) {
    return common::Status::Unavailable("malformed error frame");
  }
  return common::Status(static_cast<common::StatusCode>(code),
                        std::move(message));
}

net::Frame MakeBadPayloadFrame(const net::Frame& request) {
  return MakeErrorFrame(
      request.request_id,
      common::Status::InvalidArgument(std::string("malformed ") +
                                      net::FrameTypeName(request.type) +
                                      " payload"));
}

net::Frame MakeUnexpectedFrame(const net::Frame& request) {
  return MakeErrorFrame(
      request.request_id,
      common::Status::InvalidArgument(std::string("unexpected frame ") +
                                      net::FrameTypeName(request.type)));
}

}  // namespace zeus::cluster
