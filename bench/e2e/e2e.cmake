# Builds the end-to-end benchmark driver as part of the repository's own
# CMake build, without editing it. run.py configures the repository with
#   -DCMAKE_PROJECT_lumos5g_INCLUDE=bench/e2e/e2e.cmake
# so CMake includes this file right after the top-level project() call.
# The target is defined by a call deferred to the end of the top-level
# CMakeLists.txt, so lumos_e2e is compiled and linked with exactly the
# standard, build type, warnings and SIMD probe result of the library it
# measures. run.py then builds only this target and what it links.
set(LUMOS_E2E_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(lumos_e2e_add_driver)
  add_executable(lumos_e2e "${LUMOS_E2E_DIR}/lumos_e2e.cpp")
  target_link_libraries(lumos_e2e PRIVATE lumos_serve lumos_sim lumos_core)
  # bench_util.h: the shared training campaign (bench::global_dataset).
  target_include_directories(lumos_e2e PRIVATE "${CMAKE_SOURCE_DIR}/bench")
  set_target_properties(lumos_e2e PROPERTIES
                        RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/e2e")
endfunction()

cmake_language(DEFER CALL lumos_e2e_add_driver)
