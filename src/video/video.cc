#include "video/video.h"

#include <algorithm>
#include <atomic>

#include "common/stringutil.h"

namespace zeus::video {

const char* ActionClassName(ActionClass cls) {
  switch (cls) {
    case ActionClass::kNone:
      return "None";
    case ActionClass::kCrossRight:
      return "CrossRight";
    case ActionClass::kCrossLeft:
      return "CrossLeft";
    case ActionClass::kLeftTurn:
      return "LeftTurn";
    case ActionClass::kPoleVault:
      return "PoleVault";
    case ActionClass::kCleanAndJerk:
      return "CleanAndJerk";
    case ActionClass::kIroningClothes:
      return "IroningClothes";
    case ActionClass::kTennisServe:
      return "TennisServe";
  }
  return "Unknown";
}

ActionClass ParseActionClass(const std::string& name) {
  std::string key = common::ToLower(name);
  std::string squashed;
  for (char c : key) {
    if (c == '-' || c == '_' || c == ' ') continue;
    squashed.push_back(c);
  }
  if (squashed == "crossright") return ActionClass::kCrossRight;
  if (squashed == "crossleft") return ActionClass::kCrossLeft;
  if (squashed == "leftturn") return ActionClass::kLeftTurn;
  if (squashed == "polevault") return ActionClass::kPoleVault;
  if (squashed == "cleanandjerk") return ActionClass::kCleanAndJerk;
  if (squashed == "ironingclothes" || squashed == "ironing")
    return ActionClass::kIroningClothes;
  if (squashed == "tennisserve") return ActionClass::kTennisServe;
  return ActionClass::kNone;
}

Video::Video(int num_frames, int height, int width)
    : num_frames_(num_frames), height_(height), width_(width) {
  ZEUS_CHECK(num_frames >= 0);
  for (int f = 0; f < num_frames; f += kBlockFrames) {
    const int n = std::min(kBlockFrames, num_frames - f);
    auto block = std::make_shared<Block>();
    block->pixels.assign(static_cast<size_t>(n) * frame_pixels(), 0.0f);
    block->labels.assign(static_cast<size_t>(n), ActionClass::kNone);
    blocks_.push_back(std::move(block));
  }
}

namespace {

// True when `block` has no holder but the caller, who may then write to it.
// The acquire fence pairs with the release decrement of the last other
// holder, so the caller's writes come after every read made through that
// holder, possibly on another thread.
template <typename Block>
bool SoleHolder(const std::shared_ptr<const Block>& block) {
  if (block.use_count() != 1) return false;
  std::atomic_thread_fence(std::memory_order_acquire);
  return true;
}

}  // namespace

Video::Block& Video::MutableBlock(int b) {
  std::shared_ptr<const Block>& block = blocks_[static_cast<size_t>(b)];
  if (!SoleHolder(block)) block = std::make_shared<Block>(*block);
  return const_cast<Block&>(*block);
}

void Video::Append(const Video& src, int start, int count) {
  ZEUS_CHECK(src.height_ == height_ && src.width_ == width_);
  ZEUS_CHECK(start >= 0 && count >= 0 && start + count <= src.num_frames_);
  const size_t px = frame_pixels();
  const size_t full = static_cast<size_t>(kBlockFrames) * px;
  while (count > 0) {
    const int held = num_frames_ % kBlockFrames;
    if (held == 0) blocks_.push_back(nullptr);
    std::shared_ptr<const Block>& last = blocks_.back();
    if (last == nullptr || !SoleHolder(last) ||
        last->pixels.capacity() < full) {
      // A block with room for kBlockFrames frames, so later appends fill
      // it without moving the frames it already holds.
      auto block = std::make_shared<Block>();
      block->pixels.reserve(full);
      block->labels.reserve(kBlockFrames);
      if (last != nullptr) {
        block->pixels.insert(block->pixels.end(), last->pixels.begin(),
                             last->pixels.end());
        block->labels.insert(block->labels.end(), last->labels.begin(),
                             last->labels.end());
      }
      last = std::move(block);
    }
    Block& tail = const_cast<Block&>(*last);
    const int n =
        std::min({count, kBlockFrames - held, src.ContiguousFrames(start)});
    const float* p = src.FrameData(start);
    tail.pixels.insert(tail.pixels.end(), p, p + static_cast<size_t>(n) * px);
    for (int i = 0; i < n; ++i) tail.labels.push_back(src.Label(start + i));
    num_frames_ += n;
    start += n;
    count -= n;
  }
}

Video Video::Slice(int start, int count) const {
  Video out(0, height_, width_);
  out.Append(*this, start, count);
  return out;
}

std::vector<ActionClass> Video::labels() const {
  std::vector<ActionClass> out;
  out.reserve(static_cast<size_t>(num_frames_));
  for (const auto& block : blocks_) {
    out.insert(out.end(), block->labels.begin(), block->labels.end());
  }
  return out;
}

bool Video::IsActionAny(int f, const std::vector<ActionClass>& classes) const {
  ActionClass l = Label(f);
  return std::find(classes.begin(), classes.end(), l) != classes.end();
}

int Video::CountActionFrames(ActionClass cls) const {
  int n = 0;
  for (const auto& block : blocks_) {
    n += static_cast<int>(
        std::count(block->labels.begin(), block->labels.end(), cls));
  }
  return n;
}

std::vector<ActionInstance> ExtractInstances(const Video& video) {
  std::vector<ActionInstance> out;
  int n = video.num_frames();
  int i = 0;
  while (i < n) {
    ActionClass cls = video.Label(i);
    if (cls == ActionClass::kNone) {
      ++i;
      continue;
    }
    int j = i;
    while (j < n && video.Label(j) == cls) ++j;
    out.push_back({i, j, cls});
    i = j;
  }
  return out;
}

}  // namespace zeus::video
