// Tests for the inter-video batched executor (§6.4 extension): semantics
// must be identical to the sequential executor; only the cost accounting
// changes, and it must change in the right direction.

#include <gtest/gtest.h>

#include "core/batched_executor.h"
#include "core/executor.h"
#include "core/query_planner.h"
#include "video/dataset.h"

namespace zeus {
namespace {

class BatchedExecutorTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile =
        video::DatasetProfile::ForFamily(video::DatasetFamily::kBdd100kLike);
    profile.num_videos = 12;
    profile.frames_per_video = 200;
    dataset_ = new video::SyntheticDataset(
        video::SyntheticDataset::Generate(profile, 73));

    core::QueryPlanner::Options opts;
    opts.apfg.epochs = 4;
    opts.profile.max_windows_per_config = 60;
    opts.trainer.episodes = 3;
    opts.trainer.min_buffer = 32;
    opts.trainer.agent.batch_size = 32;
    core::QueryPlanner planner(dataset_, opts);
    auto plan = planner.PlanForClasses({video::ActionClass::kCrossRight}, 0.8);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = new core::QueryPlan(std::move(plan).value());
    for (int i : dataset_->test_indices()) {
      test_.push_back(&dataset_->video(static_cast<size_t>(i)));
    }
  }

  static void TearDownTestSuite() {
    delete plan_;
    delete dataset_;
    plan_ = nullptr;
    dataset_ = nullptr;
  }

  static video::SyntheticDataset* dataset_;
  static core::QueryPlan* plan_;
  static std::vector<const video::Video*> test_;
};

video::SyntheticDataset* BatchedExecutorTest::dataset_ = nullptr;
core::QueryPlan* BatchedExecutorTest::plan_ = nullptr;
std::vector<const video::Video*> BatchedExecutorTest::test_;

TEST_F(BatchedExecutorTest, MasksIdenticalToSequentialExecutor) {
  core::QueryExecutor sequential(plan_);
  auto base = sequential.Localize(test_);
  core::BatchedExecutor::Options opts;
  opts.max_batch = 8;
  core::BatchedExecutor batched(plan_, opts);
  auto run = batched.Localize(test_);
  ASSERT_EQ(run.masks.size(), base.masks.size());
  for (size_t i = 0; i < run.masks.size(); ++i) {
    EXPECT_EQ(run.masks[i], base.masks[i]) << "video " << i;
  }
  EXPECT_EQ(run.total_frames, base.total_frames);
  EXPECT_EQ(run.invocations, base.invocations);
  EXPECT_EQ(run.frames_per_config, base.frames_per_config);
}

TEST_F(BatchedExecutorTest, WidthOneMatchesSequentialCost) {
  core::QueryExecutor sequential(plan_);
  auto base = sequential.Localize(test_);
  core::BatchedExecutor::Options opts;
  opts.max_batch = 1;
  core::BatchedExecutor batched(plan_, opts);
  auto run = batched.Localize(test_);
  EXPECT_NEAR(run.gpu_seconds, base.gpu_seconds, 1e-9);
}

TEST_F(BatchedExecutorTest, CostDecreasesMonotonicallyWithWidth) {
  double prev = 1e18;
  for (int width : {1, 2, 4, 8, 16}) {
    core::BatchedExecutor::Options opts;
    opts.max_batch = width;
    core::BatchedExecutor batched(plan_, opts);
    auto run = batched.Localize(test_);
    EXPECT_LE(run.gpu_seconds, prev + 1e-12) << "width " << width;
    prev = run.gpu_seconds;
  }
}

TEST_F(BatchedExecutorTest, SingleVideoStillWorks) {
  core::BatchedExecutor batched(plan_);
  auto run = batched.Localize({test_[0]});
  ASSERT_EQ(run.masks.size(), 1u);
  EXPECT_EQ(static_cast<int>(run.masks[0].size()), test_[0]->num_frames());
  EXPECT_GT(run.gpu_seconds, 0.0);
}

}  // namespace
}  // namespace zeus
