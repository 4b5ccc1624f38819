// Tiny filesystem/process helpers shared by the api wire-file plumbing
// (disk cache, the CLI's request files) -- one implementation so
// platform quirks live in exactly one place.
#pragma once

#include <filesystem>
#include <string>

namespace rchls {

/// Reads a whole file as bytes. Throws rchls::Error("cannot open ...")
/// when the file cannot be opened.
std::string read_file(const std::filesystem::path& path);

/// Writes `content` as the whole file (binary, truncating), flushing
/// before returning. Returns false when the file cannot be opened or
/// fully written -- callers decide whether that is fatal (wire files)
/// or best-effort (cache entries).
[[nodiscard]] bool write_file(const std::filesystem::path& path,
                              const std::string& content);

/// The current process id (used to make temp-file names collision-free
/// across processes).
long current_pid();

}  // namespace rchls
