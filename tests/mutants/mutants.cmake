# Build-time mutants: test-only executables built against a copy of one
# source file with a planted defect, so the production code carries no
# switch that breaks it (tests/mutants/README.md lists the mutants).

find_program(LSG_PATCH_EXE patch REQUIRED)
set(LSG_MUTANTS_DIR ${CMAKE_CURRENT_LIST_DIR})

# lsg_add_mutant(<target> MUTANT <name> FILES <path>... SOURCES <src>...
#                [EXCLUDE_FROM_ALL])
#
# Copies each FILES path (relative to the repository root) into
# ${CMAKE_CURRENT_BINARY_DIR}/mutants/<target>/ at the same relative path
# and applies tests/mutants/<name>.patch there with `patch -p1 --fuzz=0`; a
# patch that does not apply exactly fails the build and names the mutant.
# <target> is built from SOURCES plus the copies, with the copied src/
# first on its include path, so a patched header reaches the copied
# .cc that includes it. It links lsg_all: an object on the link line wins
# over the same file's member of the static library, which the linker then
# never pulls in.
function(lsg_add_mutant target)
  cmake_parse_arguments(ARG "EXCLUDE_FROM_ALL" "MUTANT" "FILES;SOURCES"
                        ${ARGN})
  set(dir ${CMAKE_CURRENT_BINARY_DIR}/mutants/${target})
  set(patch ${LSG_MUTANTS_DIR}/${ARG_MUTANT}.patch)
  set(script ${LSG_MUTANTS_DIR}/apply_mutant.cmake)
  set(inputs)
  set(outputs)
  foreach(file IN LISTS ARG_FILES)
    list(APPEND inputs ${CMAKE_SOURCE_DIR}/${file})
    list(APPEND outputs ${dir}/${file})
  endforeach()
  add_custom_command(OUTPUT ${outputs}
    COMMAND ${CMAKE_COMMAND} -DMUTANT=${ARG_MUTANT} -DPATCH=${patch}
            -DPATCH_EXE=${LSG_PATCH_EXE} -DSOURCE_DIR=${CMAKE_SOURCE_DIR}
            -DMUTANT_DIR=${dir} "-DFILES=${ARG_FILES}" -P ${script}
    DEPENDS ${inputs} ${patch} ${script}
    COMMENT "Applying mutant ${ARG_MUTANT} for ${target}"
    VERBATIM)
  add_executable(${target} ${ARG_SOURCES} ${outputs})
  if(ARG_EXCLUDE_FROM_ALL)
    set_target_properties(${target} PROPERTIES EXCLUDE_FROM_ALL TRUE)
  endif()
  target_include_directories(${target} BEFORE PRIVATE ${dir}/src)
  target_link_libraries(${target} PRIVATE lsg_all)
endfunction()
