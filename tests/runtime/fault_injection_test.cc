#include "runtime/fault_injection.h"

#include <vector>

#include <gtest/gtest.h>

namespace atnn::runtime {
namespace {

TEST(FaultInjectionTest, DisabledInjectorIsInertEverywhere) {
  FaultInjectionConfig config;  // enabled defaults to false
  config.worker_delay_probability = 1.0;
  config.worker_delay_us = 1000;
  config.batch_failure_probability = 1.0;
  config.enqueue_reject_probability = 1.0;
  FaultInjector injector(config);
  EXPECT_FALSE(injector.enabled());
  injector.ArmCorruptPublish();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(injector.MaybeWorkerDelayUs(), 0);
    EXPECT_FALSE(injector.ShouldFailBatch());
    EXPECT_FALSE(injector.ShouldRejectEnqueue());
    EXPECT_FALSE(injector.TakeCorruptPublish());
  }
  EXPECT_EQ(injector.faults_injected(), 0);
}

TEST(FaultInjectionTest, SameSeedSameFaultSequence) {
  FaultInjectionConfig config;
  config.enabled = true;
  config.seed = 1234;
  config.batch_failure_probability = 0.5;
  FaultInjector a(config);
  FaultInjector b(config);
  std::vector<bool> draws_a, draws_b;
  for (int i = 0; i < 200; ++i) {
    draws_a.push_back(a.ShouldFailBatch());
    draws_b.push_back(b.ShouldFailBatch());
  }
  EXPECT_EQ(draws_a, draws_b);
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  // A fair coin over 200 draws lands strictly inside (0, 200).
  EXPECT_GT(a.faults_injected(), 0);
  EXPECT_LT(a.faults_injected(), 200);
}

TEST(FaultInjectionTest, ProbabilityExtremesAreDeterministic) {
  FaultInjectionConfig config;
  config.enabled = true;
  config.enqueue_reject_probability = 1.0;
  config.batch_failure_probability = 0.0;
  FaultInjector injector(config);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(injector.ShouldRejectEnqueue());
    EXPECT_FALSE(injector.ShouldFailBatch());
  }
  EXPECT_EQ(injector.faults_injected(), 50);
}

TEST(FaultInjectionTest, WorkerDelayReturnsConfiguredMicros) {
  FaultInjectionConfig config;
  config.enabled = true;
  config.worker_delay_probability = 1.0;
  config.worker_delay_us = 250;
  FaultInjector injector(config);
  EXPECT_EQ(injector.MaybeWorkerDelayUs(), 250);
  EXPECT_EQ(injector.faults_injected(), 1);
}

TEST(FaultInjectionTest, CorruptPublishIsOneShotAndRearmable) {
  FaultInjectionConfig config;
  config.enabled = true;
  FaultInjector injector(config);
  EXPECT_FALSE(injector.TakeCorruptPublish()) << "unarmed until armed";
  injector.ArmCorruptPublish();
  EXPECT_TRUE(injector.TakeCorruptPublish());
  // Consumed: the next publishes are clean until rearmed.
  EXPECT_FALSE(injector.TakeCorruptPublish());
  EXPECT_FALSE(injector.TakeCorruptPublish());
  injector.ArmCorruptPublish();
  EXPECT_TRUE(injector.TakeCorruptPublish());
  EXPECT_FALSE(injector.TakeCorruptPublish());
  EXPECT_EQ(injector.faults_injected(), 2);
}

}  // namespace
}  // namespace atnn::runtime
