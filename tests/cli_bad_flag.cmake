# Regression for strict CLI numeric parsing: every malformed flag value
# must exit non-zero AND name both the flag and the offending text on
# stderr (std::atoi used to fold `--port=abc` silently to port 0). Invoked
# from tests/CMakeLists.txt with -DTOOL=<binary> and
# -DCASES=<flag>=<text>[,<flag>=<text>...].
string(REPLACE "," ";" cases "${CASES}")
foreach(case IN LISTS cases)
  string(FIND "${case}" "=" eq)
  string(SUBSTRING "${case}" 0 ${eq} flag)
  math(EXPR value_begin "${eq} + 1")
  string(SUBSTRING "${case}" ${value_begin} -1 value)
  execute_process(
    COMMAND "${TOOL}" "${case}"
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(exit_code EQUAL 0)
    message(FATAL_ERROR
            "${TOOL} ${case} exited 0; expected a parse failure")
  endif()
  if(NOT err MATCHES "${flag}")
    message(FATAL_ERROR
            "stderr does not name the flag ${flag}:\n${err}")
  endif()
  if(NOT err MATCHES "${value}")
    message(FATAL_ERROR
            "stderr does not name the offending value '${value}':\n${err}")
  endif()
endforeach()
