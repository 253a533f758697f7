#include "support/host_memory.hpp"

#include <fstream>
#include <sstream>
#include <string>

namespace bstc {

double available_host_memory_bytes() {
  std::ifstream in("/proc/meminfo");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    double kib = 0.0;
    if (fields >> key >> kib && key == "MemAvailable:") return kib * 1024.0;
  }
  return 0.0;
}

}  // namespace bstc
