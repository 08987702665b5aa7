// Tests for the single validated construction path of SimilarityOptions:
// SimilarityOptionsBuilder + ValidateSimilarityOptions (core/options.h).
// The property section cross-checks the two against each other over random
// field values — Build() must accept exactly what the validator accepts,
// and every rejection must name the offending field.

#include <string>

#include "gtest/gtest.h"
#include "srs/common/rng.h"
#include "srs/core/options.h"

namespace srs {
namespace {

TEST(OptionsBuilderTest, DefaultsBuild) {
  Result<SimilarityOptions> built = SimilarityOptionsBuilder().Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_DOUBLE_EQ(built.ValueOrDie().damping, 0.6);
  EXPECT_EQ(built.ValueOrDie().iterations, 5);
  EXPECT_EQ(built.ValueOrDie().top_k, 0);
}

TEST(OptionsBuilderTest, FluentChainSetsEveryField) {
  Result<SimilarityOptions> built = SimilarityOptionsBuilder()
                                        .Damping(0.8)
                                        .Iterations(12)
                                        .Epsilon(1e-6)
                                        .SieveThreshold(1e-4)
                                        .BackendName("sparse")
                                        .PruneEpsilon(1e-4)
                                        .TopK(10)
                                        .TopKEarlyTermination(false)
                                        .NumThreads(4)
                                        .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const SimilarityOptions& options = built.ValueOrDie();
  EXPECT_DOUBLE_EQ(options.damping, 0.8);
  EXPECT_EQ(options.iterations, 12);
  EXPECT_DOUBLE_EQ(options.epsilon, 1e-6);
  EXPECT_DOUBLE_EQ(options.sieve_threshold, 1e-4);
  EXPECT_EQ(options.backend, KernelBackendKind::kSparse);
  EXPECT_DOUBLE_EQ(options.prune_epsilon, 1e-4);
  EXPECT_EQ(options.top_k, 10);
  EXPECT_FALSE(options.topk_early_termination);
  EXPECT_EQ(options.num_threads, 4);
}

TEST(OptionsBuilderTest, BaseSeedsPartialOverride) {
  SimilarityOptions base;
  base.damping = 0.85;
  base.iterations = 9;
  base.backend = KernelBackendKind::kSparse;
  Result<SimilarityOptions> built =
      SimilarityOptionsBuilder(base).Iterations(3).Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  // Only the named field changes; everything else rides along from base.
  EXPECT_EQ(built.ValueOrDie().iterations, 3);
  EXPECT_DOUBLE_EQ(built.ValueOrDie().damping, 0.85);
  EXPECT_EQ(built.ValueOrDie().backend, KernelBackendKind::kSparse);
}

TEST(OptionsBuilderTest, ErrorsNameFieldAndValue) {
  const Status damping = SimilarityOptionsBuilder().Damping(1.5).Build()
                             .status();
  EXPECT_TRUE(damping.IsInvalidArgument());
  EXPECT_NE(damping.message().find("similarity.damping"), std::string::npos)
      << damping.ToString();
  EXPECT_NE(damping.message().find("1.5"), std::string::npos)
      << damping.ToString();

  const Status prune =
      SimilarityOptionsBuilder().PruneEpsilon(2.0).Build().status();
  EXPECT_TRUE(prune.IsInvalidArgument());
  EXPECT_NE(prune.message().find("similarity.prune_epsilon"),
            std::string::npos)
      << prune.ToString();

  const Status threads =
      SimilarityOptionsBuilder().NumThreads(0).Build().status();
  EXPECT_TRUE(threads.IsInvalidArgument());
  EXPECT_NE(threads.message().find("similarity.num_threads"),
            std::string::npos)
      << threads.ToString();
}

TEST(OptionsBuilderTest, UnknownBackendNameIsDeferredToBuild) {
  // The bad name cannot be represented in the struct; the builder records
  // it and Build() reports it, so fluent chains need no mid-chain checks.
  SimilarityOptionsBuilder builder;
  builder.BackendName("gpu").Damping(0.5);
  const Status status = builder.Build().status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("similarity.backend"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("\"gpu\""), std::string::npos)
      << status.ToString();
}

TEST(OptionsBuilderTest, FirstDeferredErrorWins) {
  const Status status = SimilarityOptionsBuilder()
                            .BackendName("gpu")
                            .BackendName("tpu")
                            .Build()
                            .status();
  EXPECT_NE(status.message().find("\"gpu\""), std::string::npos)
      << status.ToString();
}

TEST(OptionsBuilderTest, NumNodesBoundCapsTopK) {
  EXPECT_TRUE(
      SimilarityOptionsBuilder().TopK(9).NumNodesBound(9).Build().ok());
  const Status status =
      SimilarityOptionsBuilder().TopK(10).NumNodesBound(9).Build().status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("similarity.top_k"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("(9)"), std::string::npos)
      << status.ToString();
  // top_k == 0 (full rows) is never capped.
  EXPECT_TRUE(
      SimilarityOptionsBuilder().TopK(0).NumNodesBound(9).Build().ok());
}

TEST(OptionsBuilderTest, ValidateMethodDelegatesToTheOneValidator) {
  SimilarityOptions options;
  options.damping = -0.2;
  const Status via_method = options.Validate();
  const Status via_function = ValidateSimilarityOptions(options);
  EXPECT_EQ(via_method.ToString(), via_function.ToString());
}

// Property: over random (often invalid) field values, Build() accepts
// exactly the options ValidateSimilarityOptions accepts, returns the value
// unchanged on success, and names a "similarity."-prefixed field on
// failure.
TEST(OptionsBuilderProperty, BuilderAgreesWithValidator) {
  Rng rng(20260808);
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    SimilarityOptions raw;
    // Each field draws from a range straddling its valid boundary.
    raw.damping = -0.5 + 2.0 * rng.UniformDouble();
    raw.iterations = static_cast<int>(rng.Uniform(8)) - 2;
    raw.epsilon = rng.Bernoulli(0.5) ? 0.0 : -1e-3 + rng.UniformDouble();
    raw.sieve_threshold =
        rng.Bernoulli(0.5) ? 0.0 : -1e-3 + rng.UniformDouble();
    raw.backend = rng.Bernoulli(0.5) ? KernelBackendKind::kDense
                                     : KernelBackendKind::kSparse;
    raw.prune_epsilon = -0.5 + 2.0 * rng.UniformDouble();
    raw.top_k = static_cast<int>(rng.Uniform(6)) - 2;
    raw.topk_early_termination = rng.Bernoulli(0.5);
    raw.num_threads = static_cast<int>(rng.Uniform(6)) - 2;

    const Status valid = ValidateSimilarityOptions(raw);
    Result<SimilarityOptions> built =
        SimilarityOptionsBuilder(raw).Build();
    ASSERT_EQ(built.ok(), valid.ok())
        << "builder and validator disagree: " << valid.ToString() << " vs "
        << built.status().ToString();
    if (built.ok()) {
      ++accepted;
      // Build() must hand back exactly what it validated.
      EXPECT_DOUBLE_EQ(built.ValueOrDie().damping, raw.damping);
      EXPECT_EQ(built.ValueOrDie().iterations, raw.iterations);
      EXPECT_EQ(built.ValueOrDie().top_k, raw.top_k);
      EXPECT_EQ(built.ValueOrDie().num_threads, raw.num_threads);
    } else {
      ++rejected;
      EXPECT_TRUE(built.status().IsInvalidArgument());
      EXPECT_EQ(built.status().message().rfind("similarity.", 0), 0u)
          << built.status().ToString();
    }
  }
  // The ranges above must actually exercise both outcomes.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

// Property: a valid base stays valid under any single valid override, and
// the override is the only change (the server's merge path relies on
// this).
TEST(OptionsBuilderProperty, SingleOverridePreservesOtherFields) {
  Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    SimilarityOptions base;
    base.damping = 0.1 + 0.8 * rng.UniformDouble();
    base.iterations = 1 + static_cast<int>(rng.Uniform(20));
    base.top_k = static_cast<int>(rng.Uniform(5));
    const double new_damping = 0.1 + 0.8 * rng.UniformDouble();
    Result<SimilarityOptions> built =
        SimilarityOptionsBuilder(base).Damping(new_damping).Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_DOUBLE_EQ(built.ValueOrDie().damping, new_damping);
    EXPECT_EQ(built.ValueOrDie().iterations, base.iterations);
    EXPECT_EQ(built.ValueOrDie().top_k, base.top_k);
    EXPECT_EQ(built.ValueOrDie().num_threads, base.num_threads);
  }
}

}  // namespace
}  // namespace srs
