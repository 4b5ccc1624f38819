// rchls: command-line reliability-centric HLS.
//
// The whole CLI lives in the core library (api/cli.hpp) so tests can
// drive it in-process; this wrapper only adapts argv and the standard
// streams. Run `rchls` with no arguments for usage, subcommands, flags
// and the exit-code contract (docs/api.md documents the api facade the
// subcommands are thin clients of; docs/wire-protocol.md the request
// files and the `cache` subcommand's on-disk layout).
#include <iostream>
#include <string>
#include <vector>

#include "api/cli.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return rchls::api::cli_main(args, std::cout, std::cerr);
}
