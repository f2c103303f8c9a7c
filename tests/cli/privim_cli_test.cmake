# End-to-end checks of the privim_cli driver on the Email stand-in at
# k = 10, one case per invocation:
#
#   cmake -DCLI=<privim_cli> -DCASE=<case> -P privim_cli_test.cmake
#
#   serial-equals-one-shard  --shards 0 and --shards 1 print byte-identical
#                            seeds/spread/privacy lines
#   two-shards               --shards 2 exits 0 and prints the
#                            parallel-composition epsilon
#   save-model-needs-serial  --shards 2 --save-model exits 2 with a message
#   negative-threads         --threads -1 exits 2 with a message

if(NOT CLI OR NOT CASE)
  message(FATAL_ERROR "usage: cmake -DCLI=<privim_cli> -DCASE=<case> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(common --dataset Email --k 10 --no-celf)

# Runs privim_cli with `common` plus ARGN; sets <prefix>_rc/_out/_err.
function(run_cli prefix)
  execute_process(COMMAND ${CLI} ${common} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(${prefix}_rc "${rc}" PARENT_SCOPE)
  set(${prefix}_out "${out}" PARENT_SCOPE)
  set(${prefix}_err "${err}" PARENT_SCOPE)
endfunction()

# The seeds/spread/privacy lines of `text`, in order.
function(headline text var)
  string(REGEX MATCHALL "(^|\n)(seeds|spread|privacy:)[^\n]*" lines "${text}")
  set(${var} "${lines}" PARENT_SCOPE)
endfunction()

function(expect_usage_error prefix)
  if(NOT "${${prefix}_rc}" STREQUAL "2")
    message(FATAL_ERROR "expected exit 2, got '${${prefix}_rc}'\n${${prefix}_out}${${prefix}_err}")
  endif()
  if(NOT "${${prefix}_err}" MATCHES "InvalidArgument: ")
    message(FATAL_ERROR "expected a Status message on stderr, got '${${prefix}_err}'")
  endif()
endfunction()

if(CASE STREQUAL "serial-equals-one-shard")
  run_cli(serial --shards 0)
  run_cli(sharded --shards 1)
  foreach(p serial sharded)
    if(NOT "${${p}_rc}" STREQUAL "0")
      message(FATAL_ERROR "${p} run failed (${${p}_rc}): ${${p}_err}")
    endif()
  endforeach()
  headline("${serial_out}" serial_lines)
  headline("${sharded_out}" sharded_lines)
  list(LENGTH serial_lines count)
  if(NOT count EQUAL 3)
    message(FATAL_ERROR "expected 3 headline lines, got ${count}:\n${serial_out}")
  endif()
  if(NOT serial_lines STREQUAL sharded_lines)
    message(FATAL_ERROR "--shards 1 differs from the serial run:\n"
      "serial: ${serial_lines}\nsharded: ${sharded_lines}")
  endif()
elseif(CASE STREQUAL "two-shards")
  run_cli(run --shards 2)
  if(NOT "${run_rc}" STREQUAL "0")
    message(FATAL_ERROR "--shards 2 failed (${run_rc}): ${run_err}")
  endif()
  if(NOT run_out MATCHES "\nprivacy: \\(2, [0-9.e-]+\\)-DP node-level\n")
    message(FATAL_ERROR "no privacy line:\n${run_out}")
  endif()
  if(NOT run_out MATCHES "privacy composition: parallel over 2 node-disjoint shards")
    message(FATAL_ERROR "no parallel-composition line:\n${run_out}")
  endif()
elseif(CASE STREQUAL "save-model-needs-serial")
  run_cli(run --shards 2 --save-model x)
  expect_usage_error(run)
elseif(CASE STREQUAL "negative-threads")
  run_cli(run --threads -1)
  expect_usage_error(run)
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
