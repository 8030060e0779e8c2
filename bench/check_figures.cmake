# Figures 5 and 6, pinned: runs each table-printing harness and
# compares everything it prints from its first "===" line onward (the
# paper-style tables, all in virtual time) with figures.expected.
#
#   cmake -DBENCH_DIR=<harness dir> -DHARNESSES="fig5_basic_ops;..." \
#         -DEXPECTED=<figures.expected> -DACTUAL=<output file> \
#         -P check_figures.cmake
#
# The expected tables change only with a deliberate cost-model change.

set(actual "")
foreach(harness IN LISTS HARNESSES)
    execute_process(COMMAND ${BENCH_DIR}/${harness}
                    OUTPUT_VARIABLE out ERROR_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${harness} exited with ${rc}")
    endif()
    string(FIND "\n${out}" "\n===" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR "${harness} printed no table")
    endif()
    string(SUBSTRING "${out}" ${pos} -1 tables)
    string(APPEND actual "## ${harness}\n${tables}")
endforeach()

file(WRITE ${ACTUAL} "${actual}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED}
                        ${ACTUAL}
                RESULT_VARIABLE differ)
if(differ)
    execute_process(COMMAND diff -u ${EXPECTED} ${ACTUAL})
    message(FATAL_ERROR "figure tables differ from ${EXPECTED}")
endif()
