#include "apfg/feature_cache.h"

#include <algorithm>

#include "video/decoder.h"

namespace zeus::apfg {

size_t FeatureCache::KeyHash::operator()(const Key& k) const {
  // SplitMix64-style mix over the packed fields.
  uint64_t h = static_cast<uint64_t>(static_cast<uint32_t>(k.video_id));
  h = h * 0x9E3779B97F4A7C15ull + static_cast<uint32_t>(k.start);
  h = h * 0x9E3779B97F4A7C15ull + static_cast<uint32_t>(k.avail);
  h = h * 0x9E3779B97F4A7C15ull + static_cast<uint32_t>(k.res);
  h = h * 0x9E3779B97F4A7C15ull +
      (static_cast<uint64_t>(static_cast<uint32_t>(k.len)) << 8 |
       static_cast<uint32_t>(k.rate));
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  return static_cast<size_t>(h);
}

FeatureCache::Key FeatureCache::MakeKey(const video::Video& video,
                                        int start_frame,
                                        const video::DecodeSpec& spec) {
  Key k;
  k.video_id = video.id();
  k.start = start_frame;
  // Clamp-awareness: how many real source frames the decode can see. Once
  // the video has grown past start + covered, this saturates at covered
  // and the key becomes stable forever.
  k.avail = std::min(video::SegmentDecoder::CoveredFrames(spec),
                     video.num_frames() - start_frame);
  k.res = spec.resolution_px;
  k.len = spec.segment_length;
  k.rate = spec.sampling_rate;
  return k;
}

std::shared_ptr<const Apfg::Output> FeatureCache::InsertLocked(
    const Key& key, std::shared_ptr<const Apfg::Output> out) {
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second.out;  // first insert won a race
  lru_.push_front(key);
  cache_.emplace(key, Entry{out, lru_.begin()});
  EvictOverCapacityLocked();
  return out;
}

void FeatureCache::EvictOverCapacityLocked() {
  if (max_entries_ == 0) return;
  while (cache_.size() > max_entries_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const Apfg::Output> FeatureCache::Get(
    const video::Video& video, int start_frame,
    const video::DecodeSpec& spec) {
  const Key key = MakeKey(video, start_frame, spec);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.pos);  // refresh LRU
      return it->second.out;
    }
  }
  // Miss: run the (read-only, deterministic) APFG inference outside the
  // lock so concurrent callers don't serialize on each other's compute.
  auto out =
      std::make_shared<Apfg::Output>(apfg_->Process(video, start_frame, spec));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;  // lost a concurrent race; the first insert wins
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    return it->second.out;
  }
  ++misses_;
  return InsertLocked(key, std::move(out));
}

void FeatureCache::Precompute(const video::Video& video,
                              const video::DecodeSpec& spec, int alignment,
                              size_t max_entries) {
  for (int start = 0; start < video.num_frames(); start += alignment) {
    if (size() >= max_entries) return;
    Get(video, start, spec);
  }
}

size_t FeatureCache::InvalidateBefore(int frame) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->start + it->avail <= frame) {
      cache_.erase(*it);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  evictions_ += dropped;
  return dropped;
}

void FeatureCache::set_max_entries(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  max_entries_ = n;
  EvictOverCapacityLocked();
}

}  // namespace zeus::apfg
