// The resume determinism contract, end to end: a PrivIM* run killed at any
// commit point — via an in-process abort or a hard _exit in a forked child
// — and resumed from the surviving snapshots must reproduce the
// uninterrupted run bit for bit (seeds, spread, epsilon_spent, sigma), at
// any thread count and across thread counts.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "ckpt/binary_io.h"
#include "ckpt/checkpoint.h"
#include "ckpt/failpoint.h"
#include "core/experiment.h"
#include "core/privim.h"

namespace privim {
namespace {

constexpr uint64_t kSeed = 123;

class ResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    instance_ = new DatasetInstance(
        std::move(PrepareDataset(DatasetId::kEmail, /*seed=*/11,
                                 /*seed_count=*/15, /*eval_steps=*/1,
                                 /*scale=*/0.5))
            .ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete instance_;
    instance_ = nullptr;
  }

  void SetUp() override { ClearFailpoints(); }
  void TearDown() override { ClearFailpoints(); }

  static PrivImConfig Config(size_t threads, const std::string& ckpt_dir,
                             bool resume) {
    PrivImConfig cfg = MakeDefaultConfig(
        Method::kPrivImStar, 4.0, instance_->train_graph.num_nodes());
    cfg.train.iterations = 30;
    cfg.train.batch_size = 8;
    cfg.seed_count = 15;
    cfg.freq.subgraph_size = 20;
    cfg.rwr.subgraph_size = 20;
    cfg.runtime.num_threads = threads;
    cfg.checkpoint.dir = ckpt_dir;
    cfg.checkpoint.resume = resume;
    // Snapshots at iterations 7, 14, 21, 28 — several distinct mid-train
    // commit points within the 30-iteration run.
    cfg.checkpoint.train_every = 7;
    return cfg;
  }

  static Result<PrivImRunResult> Run(const PrivImConfig& cfg) {
    Rng rng(kSeed);
    return RunMethod(instance_->train_graph, instance_->eval_graph, cfg,
                     rng);
  }

  /// The reference run: no checkpointing, no interruption, serial.
  static const PrivImRunResult& Baseline() {
    static PrivImRunResult* baseline = new PrivImRunResult(
        std::move(Run(Config(/*threads=*/1, "", false))).ValueOrDie());
    return *baseline;
  }

  /// Bit-identity, not closeness: every EXPECT_EQ here is on purpose.
  static void ExpectIdentical(const PrivImRunResult& got,
                              const PrivImRunResult& want) {
    EXPECT_EQ(got.seeds, want.seeds);
    EXPECT_EQ(got.spread, want.spread);
    EXPECT_EQ(got.epsilon_spent, want.epsilon_spent);
    EXPECT_EQ(got.sigma, want.sigma);
    EXPECT_EQ(got.noise_stddev, want.noise_stddev);
    EXPECT_EQ(got.clip_bound_used, want.clip_bound_used);
    EXPECT_EQ(got.occurrence_bound, want.occurrence_bound);
    EXPECT_EQ(got.container_size, want.container_size);
    EXPECT_EQ(got.audited_max_occurrence, want.audited_max_occurrence);
    EXPECT_EQ(got.final_loss, want.final_loss);
  }

  static std::string ScenarioDir(const std::string& name) {
    const std::string dir =
        (std::filesystem::temp_directory_path() / ("privim_resume_" + name))
            .string();
    std::filesystem::remove_all(dir);
    return dir;
  }

  /// Aborts a checkpointed run at `failpoint` (after `skip` pass-throughs)
  /// with `kill_threads` workers, then resumes it with `resume_threads`
  /// workers and demands the uninterrupted baseline, bit for bit.
  void CheckKillAndResume(const std::string& name,
                          const std::string& failpoint, int skip,
                          size_t kill_threads, size_t resume_threads) {
    SCOPED_TRACE(name + " @ " + failpoint);
    const std::string dir = ScenarioDir(name);

    ArmFailpoint(failpoint, FailpointAction::kStatus, skip);
    Result<PrivImRunResult> interrupted =
        Run(Config(kill_threads, dir, /*resume=*/true));
    ClearFailpoints();
    ASSERT_FALSE(interrupted.ok());
    ASSERT_EQ(interrupted.status().code(), StatusCode::kAborted);
    // The snapshot the fail point guards must have committed before the
    // kill — that ordering is what makes the interruption survivable.
    ASSERT_TRUE(FileExists(PipelineCheckpointPath(dir)));

    PrivImRunResult resumed =
        std::move(Run(Config(resume_threads, dir, /*resume=*/true)))
            .ValueOrDie();
    ExpectIdentical(resumed, Baseline());
    std::filesystem::remove_all(dir);
  }

  static DatasetInstance* instance_;
};

DatasetInstance* ResumeTest::instance_ = nullptr;

TEST_F(ResumeTest, UninterruptedRunIsThreadCountInvariant) {
  PrivImRunResult parallel =
      std::move(Run(Config(/*threads=*/8, "", false))).ValueOrDie();
  ExpectIdentical(parallel, Baseline());
}

TEST_F(ResumeTest, CheckpointingItselfDoesNotChangeResults) {
  const std::string dir = ScenarioDir("passive");
  PrivImRunResult run =
      std::move(Run(Config(/*threads=*/1, dir, false))).ValueOrDie();
  ExpectIdentical(run, Baseline());
  EXPECT_TRUE(FileExists(PipelineCheckpointPath(dir)));
  std::filesystem::remove_all(dir);
}

// ---- The three required commit points, at one and eight threads. ----

TEST_F(ResumeTest, KillAfterExtractSerial) {
  CheckKillAndResume("extract1", "privim.ckpt.after_extract", 0, 1, 1);
}

TEST_F(ResumeTest, KillAfterCalibrateSerial) {
  CheckKillAndResume("calib1", "privim.ckpt.after_calibrate", 0, 1, 1);
}

TEST_F(ResumeTest, KillAfterCalibrateParallel) {
  CheckKillAndResume("calib8", "privim.ckpt.after_calibrate", 0, 8, 8);
}

TEST_F(ResumeTest, KillMidTrainingSerial) {
  // skip=1: die at the second trainer snapshot (iteration 14 of 30).
  CheckKillAndResume("train1", "privim.ckpt.train", 1, 1, 1);
}

TEST_F(ResumeTest, KillMidTrainingParallel) {
  CheckKillAndResume("train8", "privim.ckpt.train", 1, 8, 8);
}

TEST_F(ResumeTest, KillBeforeSelectionSerial) {
  CheckKillAndResume("select1", "privim.ckpt.after_train", 0, 1, 1);
}

TEST_F(ResumeTest, KillBeforeSelectionParallel) {
  CheckKillAndResume("select8", "privim.ckpt.after_train", 0, 8, 8);
}

// ---- Crossing thread counts between the kill and the resume. ----

TEST_F(ResumeTest, InterruptSerialResumeParallel) {
  CheckKillAndResume("cross18", "privim.ckpt.train", 1, 1, 8);
}

TEST_F(ResumeTest, InterruptParallelResumeSerial) {
  CheckKillAndResume("cross81", "privim.ckpt.after_calibrate", 0, 8, 1);
}

// ---- Compound interruption histories. ----

TEST_F(ResumeTest, ThreeSuccessiveKillsStillConverge) {
  const std::string dir = ScenarioDir("chain");
  const char* points[] = {"privim.ckpt.after_extract",
                          "privim.ckpt.after_calibrate",
                          "privim.ckpt.train"};
  for (const char* point : points) {
    ArmFailpoint(point, FailpointAction::kStatus);
    Result<PrivImRunResult> interrupted =
        Run(Config(/*threads=*/1, dir, /*resume=*/true));
    ClearFailpoints();
    ASSERT_EQ(interrupted.status().code(), StatusCode::kAborted) << point;
  }
  ASSERT_TRUE(FileExists(TrainerCheckpointPath(dir)));
  PrivImRunResult resumed =
      std::move(Run(Config(/*threads=*/1, dir, /*resume=*/true)))
          .ValueOrDie();
  ExpectIdentical(resumed, Baseline());
  std::filesystem::remove_all(dir);
}

TEST_F(ResumeTest, ResumingACompletedRunRedoesOnlySelection) {
  const std::string dir = ScenarioDir("completed");
  PrivImRunResult first =
      std::move(Run(Config(/*threads=*/1, dir, /*resume=*/true)))
          .ValueOrDie();
  ExpectIdentical(first, Baseline());
  PrivImRunResult again =
      std::move(Run(Config(/*threads=*/1, dir, /*resume=*/true)))
          .ValueOrDie();
  ExpectIdentical(again, Baseline());
  std::filesystem::remove_all(dir);
}

TEST_F(ResumeTest, ResumeWithNoSnapshotsIsAFreshRun) {
  const std::string dir = ScenarioDir("fresh");
  PrivImRunResult run =
      std::move(Run(Config(/*threads=*/1, dir, /*resume=*/true)))
          .ValueOrDie();
  ExpectIdentical(run, Baseline());
  std::filesystem::remove_all(dir);
}

TEST_F(ResumeTest, MismatchedConfigRefusesToResume) {
  const std::string dir = ScenarioDir("mismatch");
  ArmFailpoint("privim.ckpt.after_extract", FailpointAction::kStatus);
  Result<PrivImRunResult> interrupted =
      Run(Config(/*threads=*/1, dir, /*resume=*/true));
  ClearFailpoints();
  ASSERT_EQ(interrupted.status().code(), StatusCode::kAborted);

  PrivImConfig other = Config(/*threads=*/1, dir, /*resume=*/true);
  other.budget.epsilon = 2.0;  // Any fingerprinted field will do.
  Rng rng(kSeed);
  const Status status =
      RunMethod(instance_->train_graph, instance_->eval_graph, other, rng)
          .status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("refusing to resume"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST_F(ResumeTest, NanParameterInTrainedCheckpointFailsEvaluation) {
  // A trained-stage checkpoint is outside input: its parameters are not
  // value-checked on load, so one NaN reaches evaluation inference. The
  // run must refuse to rank NaN scores (TopKByScore's comparator is not an
  // order over them) and name the node instead.
  const std::string dir = ScenarioDir("nan_params");
  ArmFailpoint("privim.ckpt.after_train", FailpointAction::kStatus);
  Result<PrivImRunResult> interrupted =
      Run(Config(/*threads=*/1, dir, /*resume=*/true));
  ClearFailpoints();
  ASSERT_EQ(interrupted.status().code(), StatusCode::kAborted);

  const std::string path = PipelineCheckpointPath(dir);
  PipelineState state = std::move(LoadPipelineState(path)).ValueOrDie();
  ASSERT_EQ(state.stage, PipelineStage::kTrained);
  ASSERT_FALSE(state.model_params.empty());
  state.model_params.back() = std::numeric_limits<float>::quiet_NaN();
  ASSERT_TRUE(SavePipelineState(state, path).ok());

  const Result<PrivImRunResult> resumed =
      Run(Config(/*threads=*/1, dir, /*resume=*/true));
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resumed.status().message().find("node 0 has a non-finite seed "
                                            "logit"),
            std::string::npos)
      << resumed.status().ToString();
  std::filesystem::remove_all(dir);
}

// ---- The hard-kill variant: _exit(42) in a forked child, no unwinding,
// no flushing — then an in-process resume from whatever hit the disk. ----

TEST_F(ResumeTest, HardKillAtTrainCommitThenResume) {
  const std::string dir = ScenarioDir("hardkill");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: serial run, killed dead at the second trainer snapshot.
    ArmFailpoint("privim.ckpt.train", FailpointAction::kExit, /*skip=*/1);
    Result<PrivImRunResult> r = Run(Config(/*threads=*/1, dir, true));
    (void)r;
    _exit(7);  // Reached only if the fail point never fired.
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), kFailpointExitCode);
  ASSERT_TRUE(FileExists(PipelineCheckpointPath(dir)));
  ASSERT_TRUE(FileExists(TrainerCheckpointPath(dir)));

  PrivImRunResult resumed =
      std::move(Run(Config(/*threads=*/1, dir, /*resume=*/true)))
          .ValueOrDie();
  ExpectIdentical(resumed, Baseline());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace privim
