# ctest scenario_runner_cli:
#   cmake -DRUNNER=<path to scenario_runner> -DWORK=<scratch dir> -P scenario_runner_cli_test.cmake
# The farm finds sweep_worker through $KYOTO_SWEEP_WORKER or next to RUNNER.
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
punish = block

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
file(REMOVE_RECURSE "${WORK}")
