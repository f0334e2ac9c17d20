# ctest scenario_runner_cli:
#   cmake -DRUNNER=<path to scenario_runner> -DWORK=<scratch dir> -P scenario_runner_cli_test.cmake
# The farm, and the runbook below, find sweep_worker through
# $KYOTO_SWEEP_WORKER or next to RUNNER.
if(DEFINED ENV{KYOTO_SWEEP_WORKER})
  set(worker "$ENV{KYOTO_SWEEP_WORKER}")
else()
  get_filename_component(worker "${RUNNER}" DIRECTORY)
  set(worker "${worker}/sweep_worker")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Three tiny scenarios: two balanced shards over two hosts.
set(scenarios "")
foreach(app gcc mcf omnetpp)
  set(path "${WORK}/${app}.kyoto")
  file(WRITE "${path}" "[machine]
topology = 1x2
scale = 64

[scheduler]
kind = ks4xen
monitor = direct

[vm tenant]
app = ${app}
cores = 0
llc_cap = 30
loop = true

[vm noisy]
app = lbm
cores = 1
llc_cap = 30
loop = true

[run]
warmup_ticks = 1
measure_ticks = 3
")
  list(APPEND scenarios "${path}")
endforeach()
list(GET scenarios 0 first)

# An unknown flag, and the removed --workers, are usage errors.
foreach(args "--lane;2;${first}" "--workers;2;${first}")
  execute_process(COMMAND ${RUNNER} ${args} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: scenario_runner" OR NOT out STREQUAL "")
    message(FATAL_ERROR "'${args}': exit ${rc}, stdout '${out}', stderr '${err}'")
  endif()
endforeach()

# The per-scenario reports (everything from the first scenario's
# header on) of a two-host farm and a one-lane sweep are the same bytes.
function(reports args out_var)
  execute_process(COMMAND ${RUNNER} ${args} ${scenarios} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${out}" "\n${first}: " at)
  if(NOT rc EQUAL 0 OR at LESS 0)
    message(FATAL_ERROR "'${args}': exit ${rc}, stdout '${out}', stderr '${err}'")
  endif()
  string(SUBSTRING "${out}" ${at} -1 tail)
  set(${out_var} "${tail}" PARENT_SCOPE)
  set(${out_var}_full "${out}" PARENT_SCOPE)
endfunction()

reports("--hosts;2" farm)
reports("--lanes;1" lanes)
if(NOT farm_full MATCHES "farm: 3 executed on hosts" OR farm_full MATCHES "DEGRADED")
  message(FATAL_ERROR "--hosts 2 did not run every job on its hosts:\n${farm_full}")
endif()
if(NOT farm STREQUAL lanes)
  message(FATAL_ERROR "--hosts 2 reports differ from --lanes 1:\n${farm}\n---\n${lanes}")
endif()

# The manual runbook: split over two hosts, run each printed worker
# command, merge.  The merged reports are the same bytes again.
set(split "${WORK}/split")
file(MAKE_DIRECTORY "${split}")
execute_process(COMMAND ${RUNNER} --hosts 2 --split-jobs ${split} ${scenarios}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--split-jobs: exit ${rc}, stdout '${out}', stderr '${err}'")
endif()
string(REPLACE "\n" ";" lines "${out}")
set(shards 0)
foreach(line IN LISTS lines)
  if(line MATCHES "^host[0-9]+:  sweep_worker --jobs (.+) --results (.+)   # [0-9]+ job")
    execute_process(COMMAND ${worker} --jobs ${CMAKE_MATCH_1} --results ${CMAKE_MATCH_2}
                    RESULT_VARIABLE rc ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "'${line}': exit ${rc}, stderr '${err}'")
    endif()
    math(EXPR shards "${shards} + 1")
  endif()
endforeach()
if(NOT shards EQUAL 2)
  message(FATAL_ERROR "--split-jobs printed ${shards} worker command(s), not 2:\n${out}")
endif()
reports("--merge-results;${split}" merged)
if(NOT merged_full MATCHES "merge complete: 2 shard")
  message(FATAL_ERROR "--merge-results did not merge both shards:\n${merged_full}")
endif()
if(NOT merged STREQUAL lanes)
  message(FATAL_ERROR "merged reports differ from --lanes 1:\n${merged}\n---\n${lanes}")
endif()

# A missing result file fails the merge, naming its host.
file(REMOVE "${split}/shard1.results.kyfm")
execute_process(COMMAND ${RUNNER} --merge-results ${split} ${scenarios}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT out MATCHES "host host1 \\(shard1.results.kyfm\\): missing result file")
  message(FATAL_ERROR "merge without host1's results: exit ${rc}, stdout '${out}', stderr '${err}'")
endif()

# A merge against other scenario files than were split is refused.
list(REMOVE_AT scenarios 2)
execute_process(COMMAND ${RUNNER} --merge-results ${split} ${scenarios}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "different job batch")
  message(FATAL_ERROR "merge of another batch: exit ${rc}, stdout '${out}', stderr '${err}'")
endif()
file(REMOVE_RECURSE "${WORK}")
