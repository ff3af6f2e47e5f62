# Fails if the AVX2 build of the nodal kernels defines a symbol the portable
# objects could also define: every global or weak definition in it must sit
# in a vec4 namespace (src/xbar/nodal_kernels.cpp says why).  Registered as a
# ctest in tests/CMakeLists.txt where that build exists:
#
#   cmake -DNM=<nm> -DOBJECTS=<objects> -P tests/nodal_avx2_symbols.cmake
execute_process(COMMAND ${NM} --defined-only ${OBJECTS}
                OUTPUT_VARIABLE symbols RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${OBJECTS}")
endif()
string(REPLACE "\n" ";" symbols "${symbols}")
set(shared "")
foreach(line IN LISTS symbols)
  # Upper case is global; u, v and w are unique-global and weak.  A mangled
  # name in a vec4 namespace carries the source name "4vec4".
  if(line MATCHES "^[0-9a-fA-F]* ([A-Zuvw]) (.+)$")
    set(name "${CMAKE_MATCH_2}")
    if(NOT name MATCHES "4vec4")
      list(APPEND shared "${name}")
    endif()
  endif()
endforeach()
if(shared)
  list(JOIN shared "\n  " shared)
  message(FATAL_ERROR "symbols the AVX2 nodal kernels share with other objects:\n  ${shared}")
endif()
