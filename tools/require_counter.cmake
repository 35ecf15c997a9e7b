# Assert that a telemetry metrics JSON (a bench's --metrics-out file)
# carries a counter with a value > 0:
#
#   cmake -DMETRICS=<file> -DCOUNTER=<name> -P require_counter.cmake
file(READ "${METRICS}" json)
string(JSON value ERROR_VARIABLE err GET "${json}" counters "${COUNTER}")
if(err)
  message(FATAL_ERROR "${METRICS}: no counter ${COUNTER} (${err})")
endif()
if(NOT value GREATER 0)
  message(FATAL_ERROR "${METRICS}: counter ${COUNTER} is ${value}, want > 0")
endif()
message(STATUS "${COUNTER} = ${value}")
