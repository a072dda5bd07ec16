# Write a copy of IN to OUT with one byte changed; IN is left intact.
#
# Usage: cmake -DIN=<file> -DOUT=<file> [-DOFFSET=<byte>] -P flip_byte.cmake
#
# OFFSET defaults to the middle of the file. CMake strings cannot hold
# a NUL byte, so the copy is spliced from byte ranges of IN (read
# through file:// downloads) around a one-byte replacement.
if(NOT DEFINED IN OR NOT DEFINED OUT)
    message(FATAL_ERROR "usage: cmake -DIN=<file> -DOUT=<file> "
                        "[-DOFFSET=<byte>] -P flip_byte.cmake")
endif()
get_filename_component(in "${IN}" ABSOLUTE)
file(SIZE "${in}" size)
if(NOT DEFINED OFFSET)
    math(EXPR OFFSET "${size} / 2")
endif()
if(OFFSET GREATER_EQUAL size)
    message(FATAL_ERROR "offset ${OFFSET} is past the end of ${IN}")
endif()

file(READ "${in}" old OFFSET ${OFFSET} LIMIT 1 HEX)
if(old STREQUAL "41")
    set(new "B")
else()
    set(new "A")
endif()

set(pieces)
if(OFFSET GREATER 0)
    math(EXPR head_end "${OFFSET} - 1")
    file(DOWNLOAD "file://${in}" "${OUT}.head"
         RANGE_START 0 RANGE_END ${head_end} STATUS st)
    list(GET st 0 rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "reading ${IN}: ${st}")
    endif()
    list(APPEND pieces "${OUT}.head")
endif()
file(WRITE "${OUT}.mid" "${new}")
list(APPEND pieces "${OUT}.mid")
math(EXPR tail_start "${OFFSET} + 1")
if(tail_start LESS size)
    file(DOWNLOAD "file://${in}" "${OUT}.tail"
         RANGE_START ${tail_start} STATUS st)
    list(GET st 0 rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "reading ${IN}: ${st}")
    endif()
    list(APPEND pieces "${OUT}.tail")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E cat ${pieces}
                OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
file(REMOVE ${pieces})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "writing ${OUT} failed")
endif()
file(SIZE "${OUT}" out_size)
if(NOT out_size EQUAL size)
    message(FATAL_ERROR "${OUT} has ${out_size} bytes, ${IN} has ${size}")
endif()
