# layout_advisor end to end for the autopilot and scenario runs (see
# tests/CMakeLists.txt):
#   1. `--autopilot`, `--scenario` and `--scenario --autopilot=<spec>` each
#      exit 0 and print their summary lines.
#   2. `--scenario --autopilot=<spec> --journal --journal-crash=after=5`
#      exits 3 and prints a resume command: the run's own arguments minus
#      `--journal-crash=...`, plus `--resume`. Running that command exits 0
#      and restarts the scenario at the journal's clock.
# Invoked as `cmake -DADVISOR=... -DPROBLEM=... -DWORKDIR=... -P`.

set(spec
    "interval=2;window=5;threshold=0.3,trip=2,cooldown=10;gain=0.01,horizon=2000")
set(journal "${WORKDIR}/cli_e2e.wal")
# Semicolons separate CMake list items: escape them so the spec stays one
# argument when forwarded through run_advisor's ARGN.
string(REPLACE ";" "\\;" spec_arg "${spec}")

function(run_advisor expect_rc out_var)
  execute_process(
    COMMAND "${ADVISOR}" "${PROBLEM}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expect_rc)
    message(FATAL_ERROR "${ARGN}: expected exit ${expect_rc}, got ${rc}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_match text regex what)
  if(NOT text MATCHES "${regex}")
    message(FATAL_ERROR "${what}: no match for '${regex}' in:\n${text}")
  endif()
endfunction()

run_advisor(0 out --autopilot)
expect_match("${out}"
             "Autopilot \\([^)]*\\): [0-9]+ ticks, [1-9][0-9]* monitored"
             "--autopilot")
expect_match("${out}" "foreground: [1-9][0-9]* requests, mean" "--autopilot")

run_advisor(0 out --scenario)
expect_match("${out}"
             ", static\\): [1-9][0-9]* arrivals, [1-9][0-9]* requests submitted"
             "--scenario")
expect_match("${out}" "target disk0 +measured utilization" "--scenario")

run_advisor(0 out --scenario "--autopilot=${spec_arg}")
expect_match("${out}"
             ", autopilot\\): [1-9][0-9]* arrivals, [1-9][0-9]* requests"
             "--scenario --autopilot")
expect_match("${out}" "migrations: [1-9][0-9]* started, [1-9][0-9]* completed"
             "--scenario --autopilot")

file(REMOVE "${journal}")
run_advisor(3 out --scenario "--autopilot=${spec_arg}" "--journal=${journal}"
            --journal-crash=after=5)
string(REGEX MATCH "resume with: ([^\n]*)" hint "${out}")
if(hint STREQUAL "")
  message(FATAL_ERROR "crash run printed no resume command:\n${out}")
endif()
set(resume_cmd "${CMAKE_MATCH_1}")
if(resume_cmd MATCHES "--journal-crash")
  message(FATAL_ERROR "resume command keeps --journal-crash: ${resume_cmd}")
endif()
string(FIND "${resume_cmd}" "'--autopilot=${spec}'" at)
if(at EQUAL -1)
  message(FATAL_ERROR "resume command drops the autopilot spec: ${resume_cmd}")
endif()
expect_match("${resume_cmd}" " --scenario .* --resume$" "resume command")

separate_arguments(resume_argv UNIX_COMMAND "${resume_cmd}")
execute_process(
  COMMAND ${resume_argv}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resume run: expected exit 0, got ${rc}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
expect_match("${out}" "Resuming scenario at t=[0-9.]+ s \\(journal clock\\)"
             "resume run")
expect_match("${out}" ", autopilot\\): [1-9][0-9]* arrivals" "resume run")

file(REMOVE "${journal}")
