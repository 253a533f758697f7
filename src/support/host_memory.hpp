#pragma once

/// \file host_memory.hpp
/// How much host memory the process may still use — the bound that
/// admission checks compare a predicted footprint against.

namespace bstc {

/// MemAvailable from /proc/meminfo in bytes: what the kernel estimates
/// can be allocated without swapping. 0 when it cannot be read (non-Linux
/// hosts), which callers treat as "unknown".
double available_host_memory_bytes();

}  // namespace bstc
