#include "parallel/config.hpp"

#include <algorithm>
#include <thread>

namespace rchls::parallel {

std::size_t hardware_jobs() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t resolve_jobs(std::size_t requested) {
  return requested == 0 ? hardware_jobs() : requested;
}

Config& global_config() {
  static Config config;
  return config;
}

void set_global_jobs(std::size_t jobs) { global_config().jobs = jobs; }

std::size_t global_jobs() { return resolve_jobs(global_config().jobs); }

}  // namespace rchls::parallel
