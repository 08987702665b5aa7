# Golden-file regression for the srs_query CLI: runs the binary on the
# checked-in fixture graph and fails if stdout or the all-pairs TSV drifts
# from the expectations (catches accidental output-format or score drift).
#
# Invoked by ctest (see tests/CMakeLists.txt) with:
#   -DSRS_QUERY=<path to srs_query> -DGOLDEN_DIR=<tests/golden>
#   -DWORK_DIR=<build scratch dir>
#
# To regenerate the expectations after an *intentional* change:
#   cmake -DSRS_QUERY=... -DGOLDEN_DIR=... -DWORK_DIR=... -DREGENERATE=1 \
#         -P run_golden.cmake

function(check_output label got want_file)
  file(READ "${want_file}" want)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${label} drifted from ${want_file}\n"
                        "--- got ----\n${got}\n--- want ---\n${want}")
  endif()
endfunction()

# --- Run 1: batched top-k to stdout. ---------------------------------------
execute_process(
  COMMAND "${SRS_QUERY}" --graph "${GOLDEN_DIR}/golden.edges"
          --query 4 --query 9 --topk 5 --measure gsr-star
          --damping 0.6 --iterations 8 --threads 2
  OUTPUT_VARIABLE topk_out
  ERROR_VARIABLE topk_err
  RESULT_VARIABLE topk_rc)
if(NOT topk_rc EQUAL 0)
  message(FATAL_ERROR "srs_query top-k run failed (${topk_rc}):\n${topk_err}")
endif()

# --- Run 2: multi-source all-pairs TSV + cached top-k. ---------------------
execute_process(
  COMMAND "${SRS_QUERY}" --graph "${GOLDEN_DIR}/golden.edges"
          --sources-file "${GOLDEN_DIR}/sources.txt" --topk 3
          --measure gsr-star --iterations 8 --tile 2 --cache-mb 16
          --all-pairs "${WORK_DIR}/golden_all_pairs.tsv"
  OUTPUT_VARIABLE sources_out
  ERROR_VARIABLE sources_err
  RESULT_VARIABLE sources_rc)
if(NOT sources_rc EQUAL 0)
  message(FATAL_ERROR
          "srs_query all-pairs run failed (${sources_rc}):\n${sources_err}")
endif()
file(READ "${WORK_DIR}/golden_all_pairs.tsv" all_pairs_out)

# --- Run 3: sparse frontier backend pinned at epsilon 0. -------------------
# Must be byte-identical to the dense run 1 stdout — the sparse backend's
# bit-identity contract, checked end to end through the CLI.
execute_process(
  COMMAND "${SRS_QUERY}" --graph "${GOLDEN_DIR}/golden.edges"
          --query 4 --query 9 --topk 5 --measure gsr-star
          --damping 0.6 --iterations 8 --threads 2
          --backend sparse --prune-eps 0
  OUTPUT_VARIABLE sparse_out
  ERROR_VARIABLE sparse_err
  RESULT_VARIABLE sparse_rc)
if(NOT sparse_rc EQUAL 0)
  message(FATAL_ERROR
          "srs_query sparse-backend run failed (${sparse_rc}):\n${sparse_err}")
endif()
if(NOT sparse_out STREQUAL topk_out)
  message(FATAL_ERROR "sparse backend at --prune-eps 0 diverged from the "
                      "dense top-k stdout\n"
                      "--- sparse ---\n${sparse_out}\n"
                      "--- dense ----\n${topk_out}")
endif()

# --- Run 4: top-k early termination pinned across backends. ----------------
# Accuracy-driven K (epsilon) is the regime where BatchTopK's
# bound-based early termination actually fires; its decisions depend only
# on the partial scores, which the sparse backend reproduces bitwise at
# epsilon 0 — so dense and sparse stdout must be byte-identical, and both
# must match the pinned golden (which would drift if the termination
# bounds, the partial-evaluation order, or the rank/node/score format
# changed).
execute_process(
  COMMAND "${SRS_QUERY}" --graph "${GOLDEN_DIR}/golden.edges"
          --query 4 --query 9 --topk 3 --measure gsr-star
          --damping 0.6 --epsilon 1e-6 --threads 2
  OUTPUT_VARIABLE topk_early_out
  ERROR_VARIABLE topk_early_err
  RESULT_VARIABLE topk_early_rc)
if(NOT topk_early_rc EQUAL 0)
  message(FATAL_ERROR
          "srs_query top-k early-termination run failed (${topk_early_rc}):\n"
          "${topk_early_err}")
endif()
execute_process(
  COMMAND "${SRS_QUERY}" --graph "${GOLDEN_DIR}/golden.edges"
          --query 4 --query 9 --topk 3 --measure gsr-star
          --damping 0.6 --epsilon 1e-6 --threads 2
          --backend sparse --prune-eps 0
  OUTPUT_VARIABLE topk_early_sparse_out
  ERROR_VARIABLE topk_early_sparse_err
  RESULT_VARIABLE topk_early_sparse_rc)
if(NOT topk_early_sparse_rc EQUAL 0)
  message(FATAL_ERROR "srs_query sparse top-k early-termination run failed "
                      "(${topk_early_sparse_rc}):\n${topk_early_sparse_err}")
endif()
if(NOT topk_early_sparse_out STREQUAL topk_early_out)
  message(FATAL_ERROR "sparse backend at --prune-eps 0 diverged from the "
                      "dense early-terminated top-k stdout\n"
                      "--- sparse ---\n${topk_early_sparse_out}\n"
                      "--- dense ----\n${topk_early_out}")
endif()

# --- Run 5: --apply-delta pinned across backends. --------------------------
# Applies the checked-in golden.delta copy-on-write and serves the new
# version through incrementally patched snapshots. The stdout is pinned
# (drift means the dynamic-update path changed scores) and the sparse
# backend at epsilon 0 must reproduce it byte for byte — the bit-identity
# contract extended to versioned serving.
execute_process(
  COMMAND "${SRS_QUERY}" --graph "${GOLDEN_DIR}/golden.edges"
          --apply-delta "${GOLDEN_DIR}/golden.delta"
          --query 4 --query 9 --topk 5 --measure gsr-star
          --damping 0.6 --iterations 8 --threads 2
  OUTPUT_VARIABLE delta_out
  ERROR_VARIABLE delta_err
  RESULT_VARIABLE delta_rc)
if(NOT delta_rc EQUAL 0)
  message(FATAL_ERROR
          "srs_query --apply-delta run failed (${delta_rc}):\n${delta_err}")
endif()
execute_process(
  COMMAND "${SRS_QUERY}" --graph "${GOLDEN_DIR}/golden.edges"
          --apply-delta "${GOLDEN_DIR}/golden.delta"
          --query 4 --query 9 --topk 5 --measure gsr-star
          --damping 0.6 --iterations 8 --threads 2
          --backend sparse --prune-eps 0
  OUTPUT_VARIABLE delta_sparse_out
  ERROR_VARIABLE delta_sparse_err
  RESULT_VARIABLE delta_sparse_rc)
if(NOT delta_sparse_rc EQUAL 0)
  message(FATAL_ERROR "srs_query sparse --apply-delta run failed "
                      "(${delta_sparse_rc}):\n${delta_sparse_err}")
endif()
if(NOT delta_sparse_out STREQUAL delta_out)
  message(FATAL_ERROR "sparse backend at --prune-eps 0 diverged from the "
                      "dense --apply-delta stdout\n"
                      "--- sparse ---\n${delta_sparse_out}\n"
                      "--- dense ----\n${delta_out}")
endif()

if(REGENERATE)
  file(WRITE "${GOLDEN_DIR}/topk.golden" "${topk_out}")
  file(WRITE "${GOLDEN_DIR}/sources_topk.golden" "${sources_out}")
  file(WRITE "${GOLDEN_DIR}/all_pairs.golden" "${all_pairs_out}")
  file(WRITE "${GOLDEN_DIR}/topk_early.golden" "${topk_early_out}")
  file(WRITE "${GOLDEN_DIR}/apply_delta.golden" "${delta_out}")
  message(STATUS "regenerated goldens in ${GOLDEN_DIR}")
  return()
endif()

check_output("top-k stdout" "${topk_out}" "${GOLDEN_DIR}/topk.golden")
check_output("multi-source top-k stdout" "${sources_out}"
             "${GOLDEN_DIR}/sources_topk.golden")
check_output("all-pairs TSV" "${all_pairs_out}"
             "${GOLDEN_DIR}/all_pairs.golden")
check_output("early-terminated top-k stdout" "${topk_early_out}"
             "${GOLDEN_DIR}/topk_early.golden")
check_output("apply-delta stdout" "${delta_out}"
             "${GOLDEN_DIR}/apply_delta.golden")
