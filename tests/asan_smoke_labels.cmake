# Read by ctest after the gtest-discovered tests (see tests/CMakeLists.txt):
# the runner determinism tests carry both sanitizer smoke labels.
foreach(name IN LISTS test_runner_determinism_TESTS
                      test_events_determinism_TESTS)
  set_tests_properties("${name}" PROPERTIES LABELS "tsan-smoke;asan-smoke")
endforeach()
