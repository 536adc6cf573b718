#include "ros/scene/trajectory.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rs = ros::scene;

TEST(Trajectory, DurationAndPoses) {
  rs::StraightDrive drive({.lane_offset_m = 3.0,
                           .speed_mps = 2.0,
                           .start_x_m = -4.0,
                           .end_x_m = 4.0});
  EXPECT_DOUBLE_EQ(drive.duration_s(), 4.0);
  const auto p0 = drive.pose_at(0.0);
  EXPECT_DOUBLE_EQ(p0.position.x, -4.0);
  EXPECT_DOUBLE_EQ(p0.position.y, 3.0);
  const auto p2 = drive.pose_at(2.0);
  EXPECT_DOUBLE_EQ(p2.position.x, 0.0);
}

TEST(Trajectory, VelocityCarriedInPose) {
  rs::StraightDrive drive({.speed_mps = 5.0});
  const auto p = drive.pose_at(0.1);
  EXPECT_DOUBLE_EQ(p.velocity.x, 5.0);
  EXPECT_DOUBLE_EQ(p.velocity.y, 0.0);
}

TEST(Trajectory, FramesAtRate) {
  rs::StraightDrive drive({.lane_offset_m = 3.0,
                           .speed_mps = 2.0,
                           .start_x_m = 0.0,
                           .end_x_m = 2.0});
  const auto frames = drive.frames(100.0);
  EXPECT_EQ(frames.size(), 101u);
  EXPECT_EQ(drive.frame_count(100.0), frames.size());
  EXPECT_NEAR(frames[50].position.x, 1.0, 1e-9);
  EXPECT_NEAR(frames[1].time_s - frames[0].time_s, 0.01, 1e-12);
}

TEST(Trajectory, BoresightNormalized) {
  rs::StraightDrive drive({.boresight = {0.0, -5.0}});
  EXPECT_NEAR(drive.pose_at(0.0).boresight.norm(), 1.0, 1e-12);
}

TEST(Trajectory, RadarHeightPropagates) {
  rs::StraightDrive drive({.radar_height_m = 0.25});
  EXPECT_DOUBLE_EQ(drive.pose_at(1.0).height_m, 0.25);
}

TEST(Trajectory, InvalidParamsThrow) {
  EXPECT_THROW(rs::StraightDrive({.speed_mps = 0.0}), std::invalid_argument);
  EXPECT_THROW(rs::StraightDrive({.start_x_m = 2.0, .end_x_m = -2.0}),
               std::invalid_argument);
  EXPECT_THROW(rs::StraightDrive({.lane_offset_m = -1.0}),
               std::invalid_argument);
  rs::StraightDrive ok({});
  EXPECT_THROW(ok.frames(0.0), std::invalid_argument);
  for (const double rate : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    EXPECT_THROW((void)ok.frame_count(rate), std::invalid_argument)
        << "rate " << rate;
  }
}
