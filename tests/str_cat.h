// StrCat("k", 7, "-", n) builds a string from literals, strings and
// numbers (each number as std::to_string prints it).  Tests use it in
// place of "literal" + std::to_string(n), which GCC 12 flags with a false
// -Wrestrict in optimized builds.
#pragma once

#include <string>
#include <string_view>
#include <type_traits>

namespace iamdb {
namespace test {

inline void AppendPart(std::string* out, std::string_view part) {
  out->append(part);
}

template <typename Number,
          typename = std::enable_if_t<std::is_arithmetic_v<Number>>>
void AppendPart(std::string* out, Number part) {
  out->append(std::to_string(part));
}

template <typename... Parts>
std::string StrCat(const Parts&... parts) {
  std::string out;
  (AppendPart(&out, parts), ...);
  return out;
}

}  // namespace test
}  // namespace iamdb
