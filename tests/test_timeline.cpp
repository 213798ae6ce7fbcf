// Tests for the discrete-event timeline used by the overlap simulator.
#include <gtest/gtest.h>

#include "fpm/sim/timeline.hpp"

namespace fpm::sim {
namespace {

TEST(Timeline, EmptyTimelineHasZeroMakespan) {
    Timeline tl;
    EXPECT_DOUBLE_EQ(tl.makespan(), 0.0);
}

TEST(Timeline, SequentialOpsOnOneResource) {
    Timeline tl;
    const auto r = tl.add_resource("engine");
    tl.add_op(r, 1.0);
    tl.add_op(r, 2.0);
    tl.add_op(r, 0.5);
    EXPECT_DOUBLE_EQ(tl.makespan(), 3.5);
    EXPECT_DOUBLE_EQ(tl.busy_time(r), 3.5);
}

TEST(Timeline, IndependentResourcesRunConcurrently) {
    Timeline tl;
    const auto a = tl.add_resource("a");
    const auto b = tl.add_resource("b");
    tl.add_op(a, 3.0);
    tl.add_op(b, 2.0);
    EXPECT_DOUBLE_EQ(tl.makespan(), 3.0);
}

TEST(Timeline, DependencyDelaysStart) {
    Timeline tl;
    const auto a = tl.add_resource("a");
    const auto b = tl.add_resource("b");
    const auto first = tl.add_op(a, 2.0);
    const auto second = tl.add_op(b, 1.0, {first});
    EXPECT_DOUBLE_EQ(tl.op(second).start, 2.0);
    EXPECT_DOUBLE_EQ(tl.makespan(), 3.0);
}

TEST(Timeline, DiamondDependencies) {
    Timeline tl;
    const auto r0 = tl.add_resource("r0");
    const auto r1 = tl.add_resource("r1");
    const auto r2 = tl.add_resource("r2");
    const auto root = tl.add_op(r0, 1.0);
    const auto left = tl.add_op(r1, 2.0, {root});
    const auto right = tl.add_op(r2, 3.0, {root});
    const auto join = tl.add_op(r0, 1.0, {left, right});
    EXPECT_DOUBLE_EQ(tl.op(join).start, 4.0);
    EXPECT_DOUBLE_EQ(tl.makespan(), 5.0);
}

TEST(Timeline, PipelinePattern) {
    // Classic 2-stage pipeline: transfers (1s) feeding computes (2s).
    // Steady state is compute-bound: makespan = first transfer + N*compute.
    Timeline tl;
    const auto dma = tl.add_resource("dma");
    const auto compute = tl.add_resource("compute");
    Timeline::OpId prev_comp = 0;
    for (int i = 0; i < 4; ++i) {
        const auto tx = tl.add_op(dma, 1.0);
        const std::vector<Timeline::OpId> deps =
            (i == 0) ? std::vector<Timeline::OpId>{tx}
                     : std::vector<Timeline::OpId>{tx, prev_comp};
        prev_comp = tl.add_op(compute, 2.0, deps);
    }
    EXPECT_DOUBLE_EQ(tl.makespan(), 1.0 + 4 * 2.0);
}

TEST(Timeline, FifoOrderPerResource) {
    // Submission order is execution order within one resource, even when a
    // later op has no dependencies.
    Timeline tl;
    const auto r = tl.add_resource("engine");
    const auto other = tl.add_resource("other");
    const auto blocker = tl.add_op(other, 5.0);
    tl.add_op(r, 1.0, {blocker});  // waits until t=5
    const auto late = tl.add_op(r, 1.0);
    EXPECT_DOUBLE_EQ(tl.op(late).start, 6.0);
}

TEST(Timeline, Validation) {
    Timeline tl;
    EXPECT_THROW(tl.add_op(0, 1.0), fpm::Error);  // no resources yet
    const auto r = tl.add_resource("r");
    EXPECT_THROW(tl.add_op(r, -1.0), fpm::Error);
    EXPECT_THROW(tl.add_op(r, 1.0, {42}), fpm::Error);  // dep not submitted
    EXPECT_THROW((void)tl.op(7), fpm::Error);
    EXPECT_THROW((void)tl.busy_time(3), fpm::Error);
}

TEST(Timeline, ZeroDurationOpsAllowed) {
    Timeline tl;
    const auto r = tl.add_resource("r");
    const auto a = tl.add_op(r, 0.0);
    const auto b = tl.add_op(r, 1.0, {a});
    EXPECT_DOUBLE_EQ(tl.op(b).start, 0.0);
}

TEST(Timeline, GanttRendersEveryResourceRow) {
    Timeline tl;
    const auto a = tl.add_resource("alpha");
    const auto b = tl.add_resource("b");
    tl.add_op(a, 1.0, {}, "X");
    tl.add_op(b, 2.0, {}, "Y");
    const std::string gantt = tl.render_gantt(40);
    EXPECT_NE(gantt.find("alpha"), std::string::npos);
    EXPECT_NE(gantt.find('X'), std::string::npos);
    EXPECT_NE(gantt.find('Y'), std::string::npos);
    // Two rows -> two newlines at least.
    EXPECT_GE(std::count(gantt.begin(), gantt.end(), '\n'), 2);
}

TEST(Timeline, GanttEmptySchedule) {
    Timeline tl;
    tl.add_resource("r");
    EXPECT_NE(tl.render_gantt().find("empty"), std::string::npos);
}

TEST(Timeline, ResourceNamesAndCount) {
    Timeline tl;
    const auto r = tl.add_resource("dma0");
    EXPECT_EQ(tl.resource_name(r), "dma0");
    EXPECT_EQ(tl.resource_count(), 1U);
}

} // namespace
} // namespace fpm::sim
