# Fails if a source file under SRC_DIR/MODULE includes a project header
# from a module other than those in ALLOWED.
#
#   cmake -DSRC_DIR=<repo>/src -DMODULE=matchergen \
#         -DALLOWED=ir,support,matchergen -P CheckLayering.cmake
#
# A project header is a quoted include, or an angle-bracket include
# whose first path component names a directory under SRC_DIR.

foreach(Var SRC_DIR MODULE ALLOWED)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "CheckLayering.cmake: ${Var} is not set")
  endif()
endforeach()

string(REPLACE "," ";" ALLOWED "${ALLOWED}")
file(GLOB Modules RELATIVE "${SRC_DIR}" "${SRC_DIR}/*")
file(GLOB_RECURSE Sources "${SRC_DIR}/${MODULE}/*.h" "${SRC_DIR}/${MODULE}/*.cpp")
if(NOT Sources)
  message(FATAL_ERROR "no sources under ${SRC_DIR}/${MODULE}")
endif()

set(Violations "")
foreach(Source ${Sources})
  file(STRINGS "${Source}" Includes REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<]")
  foreach(Line ${Includes})
    string(REGEX MATCH "[\"<]([^\">]*)[\">]" Unused "${Line}")
    set(Header "${CMAKE_MATCH_1}")
    string(REGEX MATCH "^[^/]*" Top "${Header}")
    if(Line MATCHES "<")
      list(FIND Modules "${Top}" IsModule)
      if(IsModule EQUAL -1 OR NOT Header MATCHES "/")
        continue()
      endif()
    endif()
    list(FIND ALLOWED "${Top}" IsAllowed)
    if(IsAllowed EQUAL -1 OR NOT Header MATCHES "/")
      file(RELATIVE_PATH Where "${SRC_DIR}" "${Source}")
      list(APPEND Violations "${Where}: ${Header}")
    endif()
  endforeach()
endforeach()

if(Violations)
  list(JOIN Violations "\n  " Lines)
  message(FATAL_ERROR
    "src/${MODULE} may include project headers only from ${ALLOWED}:\n"
    "  ${Lines}")
endif()
list(LENGTH Sources Count)
message(STATUS "src/${MODULE}: ${Count} files, includes within ${ALLOWED}")
