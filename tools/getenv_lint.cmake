# Assert that the knob table (src/common/knobs.cpp) is the only file under
# src/, tools/ and bench/ that reads the environment; every other reader
# goes through it (docs/KNOBS.md):
#
#   cmake -DROOT=<repository root> -P getenv_lint.cmake
set(table "src/common/knobs.cpp")
set(pattern "getenv[ \t]*[(]")
file(GLOB_RECURSE files RELATIVE "${ROOT}"
     "${ROOT}/src/*" "${ROOT}/tools/*" "${ROOT}/bench/*")
set(readers "")
foreach(f IN LISTS files)
  file(STRINGS "${ROOT}/${f}" hits REGEX "${pattern}")
  if(hits)
    list(APPEND readers "${f}")
  endif()
endforeach()
if(NOT readers STREQUAL table)
  message(FATAL_ERROR "environment read outside ${table}: ${readers}")
endif()
message(STATUS "only ${table} reads the environment")
