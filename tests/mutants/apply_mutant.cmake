# cmake -DMUTANT=<name> -DPATCH=<file> -DPATCH_EXE=<patch> -DSOURCE_DIR=<repo>
#       -DMUTANT_DIR=<dir> -DFILES=<path;...> -P apply_mutant.cmake
#
# Copies FILES from SOURCE_DIR into MUTANT_DIR and applies PATCH there. Run
# by lsg_add_mutant (mutants.cmake) at build time. Context must match
# exactly (--fuzz=0); on any failure the copies are removed, so the next
# build retries instead of compiling a half-patched file.

set(copies)
foreach(file IN LISTS FILES)
  # READ + WRITE rather than configure_file: the copy's timestamp must move
  # even when its content does not, or the build would rerun this forever.
  file(READ ${SOURCE_DIR}/${file} content)
  file(WRITE ${MUTANT_DIR}/${file} "${content}")
  list(APPEND copies ${MUTANT_DIR}/${file})
endforeach()

execute_process(
  COMMAND ${PATCH_EXE} --batch --forward --fuzz=0 --no-backup-if-mismatch
          --reject-file=- -p1 -d ${MUTANT_DIR} -i ${PATCH}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  file(REMOVE ${copies})
  list(JOIN FILES ", " names)
  message(FATAL_ERROR
    "mutant ${MUTANT}: ${PATCH} no longer applies to ${names}; "
    "regenerate it against the current sources (tests/mutants/README.md)\n"
    "${out}")
endif()
