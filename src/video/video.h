#ifndef ZEUS_VIDEO_VIDEO_H_
#define ZEUS_VIDEO_VIDEO_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"

namespace zeus::video {

// Action classes supported by the synthetic datasets. Numbering is stable
// because frame annotations store the enum value.
enum class ActionClass : int {
  kNone = 0,
  // BDD100K-like driving classes (§6.1 of the paper).
  kCrossRight = 1,      // pedestrian crosses left -> right
  kCrossLeft = 2,       // pedestrian crosses right -> left
  kLeftTurn = 3,        // driver takes a left turn
  // Thumos14-like sports classes.
  kPoleVault = 4,
  kCleanAndJerk = 5,
  // ActivityNet-like household/sports classes.
  kIroningClothes = 6,
  kTennisServe = 7,
};

// Highest ActionClass value — keep in sync when extending the enum.
// Deserializers (e.g. PlanIo) range-check stored class ids against this.
inline constexpr int kMaxActionClassId = static_cast<int>(ActionClass::kTennisServe);

// Human-readable name ("CrossRight") used in reports and query strings.
const char* ActionClassName(ActionClass cls);

// Parses "cross-right" / "CrossRight" / "left_turn" etc. Returns kNone on
// unknown names.
ActionClass ParseActionClass(const std::string& name);

// A single-channel (luminance) video with per-frame ground-truth labels.
// Pixel (f, y, x) lives at FrameData(f)[y * width + x], values roughly in
// [0, 1]. Frames are held in blocks of kBlockFrames, block b holding frames
// [b * kBlockFrames, (b + 1) * kBlockFrames); only the last block may be
// partly filled. A frame's pixels are contiguous, and so are the frames of
// one block (ContiguousFrames), but frames in different blocks are not.
// kBlockFrames equals SyntheticDataset::kStreamBlockFrames, so one stream
// block's append touches at most two blocks.
//
// Blocks are shared between copies: copying a Video copies block pointers,
// not pixels. Writes keep value semantics — the mutable FrameData and
// SetLabel first give this video its own copy of the block they write to,
// so writing to a copy never changes the original.
class Video {
 public:
  static constexpr int kBlockFrames = 64;

  Video(int num_frames, int height, int width);

  int num_frames() const { return num_frames_; }
  int height() const { return height_; }
  int width() const { return width_; }

  float* FrameData(int f) {
    ZEUS_CHECK(f >= 0 && f < num_frames_);
    return MutableBlock(f / kBlockFrames).pixels.data() +
           static_cast<size_t>(f % kBlockFrames) * frame_pixels();
  }
  const float* FrameData(int f) const {
    ZEUS_CHECK(f >= 0 && f < num_frames_);
    return blocks_[static_cast<size_t>(f / kBlockFrames)]->pixels.data() +
           static_cast<size_t>(f % kBlockFrames) * frame_pixels();
  }

  // Number of frames from `f` on whose pixels follow FrameData(f)
  // contiguously: the rest of f's block.
  int ContiguousFrames(int f) const {
    ZEUS_CHECK(f >= 0 && f < num_frames_);
    return std::min(kBlockFrames - f % kBlockFrames, num_frames_ - f);
  }

  // Oracle label function L(n) from §2.1.
  ActionClass Label(int f) const {
    ZEUS_CHECK(f >= 0 && f < num_frames_);
    return blocks_[static_cast<size_t>(f / kBlockFrames)]
        ->labels[static_cast<size_t>(f % kBlockFrames)];
  }
  void SetLabel(int f, ActionClass cls) {
    ZEUS_CHECK(f >= 0 && f < num_frames_);
    Block& block = MutableBlock(f / kBlockFrames);
    block.labels[static_cast<size_t>(f % kBlockFrames)] = cls;
  }

  // Binary label function f_X(n) from Eq. (1).
  bool IsAction(int f, ActionClass cls) const { return Label(f) == cls; }

  // Binary label against any of a set of classes (multi-class training,
  // §6.5: frames matching either class are positives).
  bool IsActionAny(int f, const std::vector<ActionClass>& classes) const;

  // Number of frames labeled with `cls`.
  int CountActionFrames(ActionClass cls) const;

  // Every frame's label, in frame order.
  std::vector<ActionClass> labels() const;

  // Stream append: extends this video with frames [start, start + count)
  // of `src` (all of `tail`'s frames for the one-argument form). Shapes
  // must match. Full blocks are never touched, so pointers into them stay
  // valid. The partly filled last block is extended in place when this
  // video alone holds it and it has room (a block Append started always
  // has); otherwise it is replaced by an extended copy, and pointers into
  // the old block stay valid while another video — a snapshot — holds it.
  // So a reader that snapshotted an earlier num_frames() and indexes below
  // it always sees the same pixels — growth is strictly suffix-only.
  void Append(const Video& tail) { Append(tail, 0, tail.num_frames()); }
  void Append(const Video& src, int start, int count);

  // Copy of frames [start, start + count) as a standalone video. The id
  // is not copied.
  Video Slice(int start, int count) const;

  // Optional identifier for debugging / cache keys.
  void set_id(int id) { id_ = id; }
  int id() const { return id_; }

 private:
  // Up to kBlockFrames frames: labels.size() frames, their pixels back to
  // back. Shared blocks are never written; every block is allocated
  // non-const so that its sole holder may write to it (MutableBlock).
  struct Block {
    std::vector<float> pixels;
    std::vector<ActionClass> labels;
  };

  size_t frame_pixels() const { return static_cast<size_t>(height_) * width_; }

  // Block `b`, first copied if another video shares it.
  Block& MutableBlock(int b);

  int num_frames_;
  int height_;
  int width_;
  std::vector<std::shared_ptr<const Block>> blocks_;
  int id_ = -1;
};

// A contiguous [start, end) frame interval of one action instance.
struct ActionInstance {
  int start = 0;
  int end = 0;  // exclusive
  ActionClass cls = ActionClass::kNone;

  int length() const { return end - start; }
};

// Extracts the ground-truth action instances (maximal runs of equal
// non-kNone labels) from a video.
std::vector<ActionInstance> ExtractInstances(const Video& video);

}  // namespace zeus::video

#endif  // ZEUS_VIDEO_VIDEO_H_
