#pragma once
// Command-line flag extraction shared by the example tools.

#include <cstring>

namespace prox::cli {

/// "--flag value" / "--flag=value" extraction; advances @p i for the
/// two-token form.  Returns nullptr when argv[*i] is not @p flag or has no
/// value.  The two-token form never takes the next flag as its value: a flag
/// missing its value is a usage error (exit 2), not a flag swallowed.
inline const char* flagValue(const char* flag, char** argv, int argc, int* i) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(argv[*i], flag, n) != 0) return nullptr;
  if (argv[*i][n] == '=') return argv[*i] + n + 1;
  if (argv[*i][n] == '\0' && *i + 1 < argc &&
      std::strncmp(argv[*i + 1], "--", 2) != 0) {
    return argv[++*i];
  }
  return nullptr;
}

}  // namespace prox::cli
