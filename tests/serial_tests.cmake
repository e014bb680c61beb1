# Read by ctest after the discovered gtest lists (see tests/CMakeLists.txt):
# wall-clock tests that must not share the host with other tests.
set_tests_properties("Scale.ProfilerOverheadStaysUnderFivePercent"
  PROPERTIES RUN_SERIAL TRUE)
