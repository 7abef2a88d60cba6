#ifndef ZEUS_APFG_APFG_H_
#define ZEUS_APFG_APFG_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "apfg/r3d.h"
#include "common/rng.h"
#include "common/status.h"
#include "tensor/gemm.h"
#include "video/dataset.h"
#include "video/decoder.h"

namespace zeus::apfg {

// Training knobs for the APFG's supervised fine-tuning stage.
struct ApfgTrainOptions {
  int epochs = 16;
  int batch_size = 16;
  float learning_rate = 3e-3f;
  double neg_per_pos = 1.5;
  // Stddev of train-time Gaussian pixel noise, in standardized input units.
  // Regularizes against the per-video background statistics that a small
  // training corpus would otherwise let the classifier memorize.
  float augment_noise = 0.15f;
  // Cap on examples contributed by each non-primary decode spec in the
  // training mixture (the primary spec is uncapped).
  int max_aux_examples = 256;
  R3dLite::Options model;
};

struct ApfgTrainStats {
  float final_loss = 0.0f;
  float train_accuracy = 0.0f;
  int num_examples = 0;
  double train_seconds = 0.0;
};

// Adaptive Proxy Feature Generator (§3). A collection of action recognition
// models that generate ProxyFeatures for segments decoded under any
// configuration. Two operating modes mirror §5 "Model reuse":
//   - reuse (default): one R3dLite trained on the most accurate
//     configuration processes every configuration;
//   - ensemble: one model per segment-length bucket, each trained on
//     segments of that shape.
class Apfg {
 public:
  Apfg(const ApfgTrainOptions& opts, bool model_reuse, common::Rng* rng);

  // Trains on the given videos for the target action classes. `best_spec`
  // is the most accurate configuration's decode parameters (highest
  // resolution, densest sampling). In ensemble mode, `all_specs` supplies
  // one spec per model bucket.
  common::Status Train(const std::vector<const video::Video*>& videos,
                       const std::vector<video::ActionClass>& targets,
                       const video::DecodeSpec& best_spec,
                       const std::vector<video::DecodeSpec>& all_specs,
                       ApfgTrainStats* stats);

  // Output of one APFG invocation on one segment.
  struct Output {
    tensor::Tensor feature;  // {feature_dim}
    int prediction = 0;      // 1 = ACTION
    float action_prob = 0.5f;
  };

  // Decodes + processes the segment at `start_frame` of `video` under
  // `spec`. This is the unit the cost model charges for.
  Output Process(const video::Video& video, int start_frame,
                 const video::DecodeSpec& spec);

  // Processes an already-decoded segment batch {N,1,L,H,W}; returns one
  // Output per row (used by tests and zeusbench's per-layer timings).
  std::vector<Output> ProcessBatch(const tensor::Tensor& batch,
                                   const video::DecodeSpec& spec);

  int feature_dim() const { return opts_.model.feature_dim; }
  bool model_reuse() const { return model_reuse_; }
  bool trained() const { return trained_; }

  // Marks the APFG as trained after loading checkpointed weights.
  void MarkTrained() { trained_ = true; }

  // Decision threshold on the classifier's action probability. Default 0.5;
  // the query planner calibrates it on the validation split to maximize F1
  // (recall-starved thresholds are the main failure mode when actions are
  // rare).
  float decision_threshold() const { return decision_threshold_; }
  void set_decision_threshold(float t) { decision_threshold_ = t; }

  // Per-configuration threshold override, calibrated by the configuration
  // planner while profiling (§4.2): a single reused model is systematically
  // over-confident on out-of-distribution fast configurations, so each
  // decode shape gets its own operating point.
  void SetSpecThreshold(const video::DecodeSpec& spec, float threshold);
  float ThresholdFor(const video::DecodeSpec& spec) const;

  // The model that serves `spec` (reuse mode: always the shared model).
  R3dLite* ModelFor(const video::DecodeSpec& spec);

  // Routes every model (shared + per-length ensemble members) through `ctx`;
  // nullptr follows the process-wide tensor::GlobalComputeContext(). Models
  // trained after this call inherit the same context. Resets any int8
  // validation state (models revalidate against the new base context).
  void SetComputeContext(const tensor::ComputeContext* ctx);

  // Maximum action-probability drift a model may show on its first int8
  // batch (vs the same batch in fp32) and still be switched to int8
  // inference. The kernel-level error bound (see tensor_ops.h) keeps
  // pre-softmax drift well under this for the R3dLite depth; the check
  // guards against pathological weight/activation ranges per model.
  static constexpr float kInt8ScoreTolerance = 0.05f;

  // Opts inference into the int8 GEMM path (tensor::ComputePath::kInt8).
  // Validation is lazy and per model: the first ProcessBatch that reaches a
  // model runs the batch in both fp32 and int8 and compares action
  // probabilities; within kInt8ScoreTolerance the model switches to int8
  // permanently, otherwise it logs a warning and stays fp32. Training is
  // unaffected either way (layers run train-mode forward/backward in fp32).
  // Thread-safe against concurrent ProcessBatch calls. Disabling restores
  // every model to the base compute context.
  void EnableInt8Inference(bool enable = true);
  bool int8_inference_enabled() const { return int8_enabled_; }

 private:
  enum class Int8State { kActive, kFallback };
  common::Status TrainOne(R3dLite* model,
                          const std::vector<const video::Video*>& videos,
                          const std::vector<video::ActionClass>& targets,
                          const std::vector<video::DecodeSpec>& specs,
                          ApfgTrainStats* stats);

  // Builds per-row Outputs from a model forward pass.
  std::vector<Output> OutputsFrom(const R3dLite::Output& out,
                                  const video::DecodeSpec& spec) const;

  // First int8 use of `model`: validates int8 vs fp32 on `batch` under the
  // unique lock, switches the model or records the fallback, and returns
  // the batch's outputs (int8 if validation passed, fp32 otherwise).
  std::vector<Output> ValidateInt8AndProcess(R3dLite* model,
                                             const tensor::Tensor& batch,
                                             const video::DecodeSpec& spec);

  static uint32_t SpecKey(const video::DecodeSpec& spec) {
    return (static_cast<uint32_t>(spec.resolution_px) << 16) |
           (static_cast<uint32_t>(spec.segment_length) << 8) |
           static_cast<uint32_t>(spec.sampling_rate);
  }

  ApfgTrainOptions opts_;
  const tensor::ComputeContext* compute_ctx_ = nullptr;
  bool model_reuse_;
  bool trained_ = false;
  float decision_threshold_ = 0.5f;
  std::map<uint32_t, float> spec_thresholds_;
  common::Rng rng_;
  std::unique_ptr<R3dLite> shared_model_;
  std::map<int, std::unique_ptr<R3dLite>> per_length_models_;

  // Int8 opt-in state. int8_mu_ is held shared across any inference while
  // int8 mode is on (so a first-use validation, which flips a model's
  // compute context under the unique lock, can never race a concurrent
  // forward pass) and unique during validation / mode changes.
  bool int8_enabled_ = false;
  mutable std::shared_mutex int8_mu_;
  std::map<R3dLite*, Int8State> int8_states_;
  tensor::ComputeContext int8_ctx_;
};

}  // namespace zeus::apfg

#endif  // ZEUS_APFG_APFG_H_
