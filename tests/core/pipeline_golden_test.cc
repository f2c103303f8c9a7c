// End-to-end golden for RunMethod: for every GNN backbone under PrivIM*,
// and for the Non-Private baseline, the seed set, the spread and the final
// trained parameters must match the constants in pipeline_goldens.inc
// bit for bit.
//
// The constants were generated before the execution engine was rebuilt
// around compiled plans only, so the test proves that evaluation
// inference, the parameter store and the training loop changed nothing
// observable. If a case fails after an INTENTIONAL semantic change,
// regenerate with `golden_gen pipeline` (tools/golden_gen.cc) and say so
// in the change description. Never regenerate to paper over an unintended
// diff.

#include <gtest/gtest.h>

#include "pipeline_golden_cases.h"
#include "pipeline_goldens.inc"

namespace privim {
namespace {

struct Pinned {
  uint64_t seeds;
  double spread;
  uint64_t params;
};

// Same order as pipeline_golden::kCases.
constexpr Pinned kPinned[] = {
    {goldens::kGcnStarSeeds, goldens::kGcnStarSpread,
     goldens::kGcnStarParams},
    {goldens::kSageStarSeeds, goldens::kSageStarSpread,
     goldens::kSageStarParams},
    {goldens::kGinStarSeeds, goldens::kGinStarSpread,
     goldens::kGinStarParams},
    {goldens::kGatStarSeeds, goldens::kGatStarSpread,
     goldens::kGatStarParams},
    {goldens::kGratStarSeeds, goldens::kGratStarSpread,
     goldens::kGratStarParams},
    {goldens::kGratNonPrivateSeeds, goldens::kGratNonPrivateSpread,
     goldens::kGratNonPrivateParams},
};
static_assert(std::size(kPinned) == std::size(pipeline_golden::kCases));

TEST(PipelineGoldenTest, RunMethodMatchesPinnedOutputs) {
  for (size_t i = 0; i < std::size(pipeline_golden::kCases); ++i) {
    const pipeline_golden::Case& c = pipeline_golden::kCases[i];
    const pipeline_golden::Outcome out = pipeline_golden::Run(c);
    EXPECT_EQ(out.seeds_hash, kPinned[i].seeds) << c.name;
    EXPECT_EQ(out.spread, kPinned[i].spread) << c.name;
    EXPECT_EQ(out.params_hash, kPinned[i].params) << c.name;
  }
}

}  // namespace
}  // namespace privim
