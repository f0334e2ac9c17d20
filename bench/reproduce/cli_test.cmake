# ctest repro_cli: cmake -DREPRO=<path to bench_reproduce> -P cli_test.cmake
set(expected "fig1;fig2;fig3;fig4;fig5;fig6;fig8;fig9;fig10;fig11;fig12;table1;ablation-baselines;ablation-memsys;ablation-replacement")

execute_process(COMMAND ${REPRO} --list RESULT_VARIABLE rc OUTPUT_VARIABLE out)
string(STRIP "${out}" out)
string(REPLACE "\n" ";" ids "${out}")
if(NOT rc EQUAL 0 OR NOT ids STREQUAL expected)
  message(FATAL_ERROR "--list: exit ${rc}, ids '${ids}', expected '${expected}'")
endif()

execute_process(COMMAND ${REPRO} fig7 RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: bench_reproduce" OR NOT out STREQUAL "")
  message(FATAL_ERROR "unknown id: exit ${rc}, stdout '${out}', stderr '${err}'")
endif()
