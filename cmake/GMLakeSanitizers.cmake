# GMLAKE_SANITIZE=address|undefined|thread|leak (comma-separated).
# Applied globally so first-party code and test binaries agree on the
# runtime; ThreadSanitizer cannot be combined with the others.
# `undefined` also turns on float-cast-overflow, which GCC leaves out
# of -fsanitize=undefined: core scales double knobs into Bytes.

if (NOT GMLAKE_SANITIZE)
    return()
endif ()

string(REPLACE "," ";" _gmlake_sanitizers "${GMLAKE_SANITIZE}")

set(_gmlake_known address undefined thread leak)
foreach (_san IN LISTS _gmlake_sanitizers)
    if (NOT _san IN_LIST _gmlake_known)
        message(FATAL_ERROR
            "GMLAKE_SANITIZE: unknown sanitizer '${_san}' "
            "(expected address, undefined, thread, or leak)")
    endif ()
endforeach ()

if ("thread" IN_LIST _gmlake_sanitizers AND
    NOT GMLAKE_SANITIZE STREQUAL "thread")
    message(FATAL_ERROR
        "GMLAKE_SANITIZE: thread cannot be combined with other "
        "sanitizers")
endif ()

if ("undefined" IN_LIST _gmlake_sanitizers)
    list(APPEND _gmlake_sanitizers float-cast-overflow)
endif ()

string(REPLACE ";" "," _gmlake_fsanitize "${_gmlake_sanitizers}")
message(STATUS "GMLake: sanitizers enabled: ${_gmlake_fsanitize}")

add_compile_options(-fsanitize=${_gmlake_fsanitize}
    -fno-omit-frame-pointer -g)
add_link_options(-fsanitize=${_gmlake_fsanitize})
