# Build hook for the end-to-end benchmark. perfbench/run.py configures
# the repository's own top-level CMake project with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# so the library is compiled exactly as the repository builds it (same
# options, per-file flags and build type) and only this binary is added.
# CMake includes this file right after the top-level project() call,
# before the library targets exist; they are linked by name and resolved
# when the build system is generated.
add_executable(hsvd_perfbench
  ${CMAKE_CURRENT_LIST_DIR}/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/harness.cpp
  ${CMAKE_CURRENT_LIST_DIR}/layers.cpp
  ${CMAKE_CURRENT_LIST_DIR}/dense.cpp
  ${CMAKE_CURRENT_LIST_DIR}/batch.cpp
  ${CMAKE_CURRENT_LIST_DIR}/serve.cpp
)
set_target_properties(hsvd_perfbench PROPERTIES
  CXX_STANDARD 20
  CXX_STANDARD_REQUIRED ON
  CXX_EXTENSIONS OFF)
target_compile_options(hsvd_perfbench PRIVATE -Wall -Wextra)
target_compile_definitions(hsvd_perfbench PRIVATE
  HSVD_BENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
target_link_libraries(hsvd_perfbench PRIVATE hsvd_serve heterosvd)
