#ifndef ZEUS_VIDEO_DATASET_H_
#define ZEUS_VIDEO_DATASET_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "video/renderer.h"
#include "video/video.h"

namespace zeus::video {

// The dataset families evaluated in the paper (§6.1 / Table 3), plus the
// two domain-adaptation targets (§6.6).
enum class DatasetFamily {
  kBdd100kLike,
  kThumos14Like,
  kActivityNetLike,
  kCityscapesLike,  // BDD classes, shifted scene statistics
  kKittiLike,       // BDD classes, strongly shifted scene statistics
};

const char* DatasetFamilyName(DatasetFamily family);

// Generation parameters for one synthetic dataset. Defaults are the
// ~20x-scaled-down equivalents of Table 3 (see DESIGN.md §4).
struct DatasetProfile {
  DatasetFamily family = DatasetFamily::kBdd100kLike;
  std::string name = "BDD100K-like";
  int num_videos = 48;
  int frames_per_video = 400;
  int native_resolution = 30;  // rendered pixels (square frames)
  // Classes annotated in this dataset; every video may contain instances of
  // any of them plus distractors.
  std::vector<ActionClass> classes;
  // Target fraction of frames covered by actions (Table 3 "Percent Actions").
  double action_fraction = 0.07;
  // Action instance length distribution (frames).
  double mean_action_length = 60.0;
  double stddev_action_length = 28.0;
  int min_action_length = 12;
  int max_action_length = 150;
  // Distractor (non-action motion) density: expected events per 100 frames.
  double distractor_rate = 0.8;
  SceneStyle style;

  // Canonical profile for a family, sized for single-core experiments.
  static DatasetProfile ForFamily(DatasetFamily family);
};

// Aggregate statistics, mirroring Table 3 columns.
struct DatasetStatistics {
  int num_classes = 0;
  long total_frames = 0;
  double percent_action_frames = 0.0;
  double avg_action_length = 0.0;
  double stddev_action_length = 0.0;
  int min_action_length = 0;
  int max_action_length = 0;
  int num_instances = 0;
};

// An in-memory synthetic dataset: a bag of annotated videos plus split
// indices. Generation is deterministic given (profile, seed).
class SyntheticDataset {
 public:
  static SyntheticDataset Generate(const DatasetProfile& profile,
                                   uint64_t seed);

  // Reassembles a dataset from persisted parts (storage round-trip). Split
  // indices must each be a subset of [0, videos.size()).
  static SyntheticDataset FromParts(DatasetProfile profile,
                                    std::vector<Video> videos,
                                    std::vector<int> train,
                                    std::vector<int> val,
                                    std::vector<int> test);

  const DatasetProfile& profile() const { return profile_; }
  const std::vector<Video>& videos() const { return videos_; }
  size_t num_videos() const { return videos_.size(); }
  const Video& video(size_t i) const { return videos_[i]; }

  // Deterministic 60 / 20 / 20 train / validation / test split.
  const std::vector<int>& train_indices() const { return train_; }
  const std::vector<int>& val_indices() const { return val_; }
  const std::vector<int>& test_indices() const { return test_; }

  DatasetStatistics ComputeStatistics() const;

  // Returns a copy of this dataset where frames labeled with any class in
  // `classes` are relabeled to `merged` — the multi-class training setup of
  // §6.5 (either class counts as a positive).
  SyntheticDataset MergeClasses(const std::vector<ActionClass>& classes,
                                ActionClass merged) const;

  // ---- Live-stream growth -------------------------------------------------
  //
  // A generated dataset can grow: test-split videos gain frames in
  // deterministic blocks of kStreamBlockFrames, each seeded by
  // (generation seed, video index, block index). Because a block's bytes
  // depend only on those three values, any append batching converges to
  // identical pixels — growing 64 frames once or 8 frames eight times
  // yields byte-identical videos. That prefix-stability is what makes
  // replica catch-up, idempotent append retries, and the bit-identical
  // subscriber contract possible. Train/val videos never grow: the
  // trained plan's profiling splits stay frozen, so plan reuse across
  // windows stays valid.
  //
  // Copying a dataset shares every video's frame blocks (see Video), so a
  // copy-on-write clone copies pointers, not pixels, and GrowTo on the
  // clone renders only the frames it adds: it refills at most the partly
  // filled last block of each growing video and adds new ones.

  static constexpr int kStreamBlockFrames = 64;

  // True when this dataset can grow (generated with a recorded seed — or
  // restored via RestoreStreamState — and has test videos to grow).
  bool streamable() const { return has_stream_seed_ && !test_.empty(); }

  // Monotone growth epoch, stamped by GrowTo (applied as max). Readers
  // that snapshot (frame_epoch, stream_length) see a consistent prefix.
  uint64_t frame_epoch() const { return frame_epoch_; }

  // Frame count the test videos were generated with (growth starts here).
  int base_frames() const { return base_frames_; }
  uint64_t stream_seed() const { return stream_seed_; }

  // Current length of the growing (test-split) videos.
  long stream_length() const;

  // Grows every test-split video to exactly `target_frames` and stamps
  // `epoch`. Idempotent: a target at/below the current length only bumps
  // the epoch (monotone max), and re-applying any prefix of appends is a
  // no-op. Fails with InvalidArgument when the dataset is not streamable.
  common::Status GrowTo(long target_frames, uint64_t epoch);

  // Restores stream identity after a storage round-trip (LoadDataset) so
  // a reloaded dataset keeps growing deterministically from where the
  // saved one stopped.
  void RestoreStreamState(uint64_t seed, int base_frames, uint64_t epoch);

 private:
  DatasetProfile profile_;
  std::vector<Video> videos_;
  std::vector<int> train_, val_, test_;
  bool has_stream_seed_ = false;
  uint64_t stream_seed_ = 0;
  uint64_t frame_epoch_ = 0;
  int base_frames_ = 0;
};

}  // namespace zeus::video

#endif  // ZEUS_VIDEO_DATASET_H_
