// Small string helpers shared across the framework.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pim {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Split on any whitespace, dropping empty fields.
std::vector<std::string> split_ws(std::string_view text);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

std::string to_lower(std::string_view text);
std::string to_upper(std::string_view text);

/// Join items with `sep`.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Directory part of a path ("configs/space.json" -> "configs"); "." when
/// the path has no slash. Used to resolve file references relative to the
/// file that made them.
std::string dirname(std::string_view path);

/// A file reference made by a spec in `base_dir`: a relative `path` is
/// joined to `base_dir`; an absolute or empty one, or an empty `base_dir`
/// (the working directory), leaves it as it is.
std::string resolve_path(const std::string& path, const std::string& base_dir);

/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// FNV-1a 64-bit content hash (stable across platforms and runs) — the
/// shared fingerprint primitive of the dse result cache and the workload
/// layer.
uint64_t fnv1a64(std::string_view data);

}  // namespace pim
