#include "topics/topic.hpp"

#include <cctype>

namespace frugal::topics {

namespace {

bool segments_well_formed(std::string_view path) {
  if (path.empty()) return true;  // root
  if (path.front() == '.' || path.back() == '.') return false;
  bool previous_dot = false;
  for (char c : path) {
    if (c == '.') {
      if (previous_dot) return false;  // empty segment
      previous_dot = true;
      continue;
    }
    previous_dot = false;
    if (std::isspace(static_cast<unsigned char>(c)) != 0) return false;
  }
  return true;
}

std::string_view strip_leading_dot(std::string_view text) {
  if (!text.empty() && text.front() == '.') text.remove_prefix(1);
  return text;
}

}  // namespace

bool Topic::valid(std::string_view text) {
  if (text == ".") return true;
  if (text.empty()) return false;  // the root is spelled "."
  const std::string_view path = strip_leading_dot(text);
  return !path.empty() && segments_well_formed(path);
}

Topic Topic::parse(std::string_view text) {
  FRUGAL_EXPECT(valid(text));
  if (text == ".") return Topic{};
  return Topic{std::string{strip_leading_dot(text)}};
}

std::size_t Topic::depth() const {
  if (path_.empty()) return 0;
  std::size_t n = 1;
  for (char c : path_) {
    if (c == '.') ++n;
  }
  return n;
}

Topic Topic::parent() const {
  const auto pos = path_.rfind('.');
  if (pos == std::string::npos) return Topic{};  // depth <= 1 -> root
  return Topic{path_.substr(0, pos)};
}

Topic Topic::child(std::string_view segment) const {
  FRUGAL_EXPECT(!segment.empty());
  FRUGAL_EXPECT(segment.find('.') == std::string_view::npos);
  if (path_.empty()) return Topic{std::string{segment}};
  return Topic{path_ + "." + std::string{segment}};
}

std::vector<Topic> complete_tree_level(const Topic& root,
                                       std::uint32_t branching,
                                       std::uint32_t depth) {
  FRUGAL_EXPECT(branching >= 1);
  std::vector<Topic> level{root};
  for (std::uint32_t d = 0; d < depth; ++d) {
    // Guard b^depth *before* materializing the next level, so an absurd
    // branching/depth combination aborts instead of attempting a giant
    // allocation.
    FRUGAL_EXPECT(level.size() <= (1u << 20) / branching);
    std::vector<Topic> next;
    next.reserve(level.size() * branching);
    for (const Topic& parent : level) {
      for (std::uint32_t child = 0; child < branching; ++child) {
        // Appended, not "b" + std::to_string(child): GCC 12's -O3 raises a
        // false -Werror=restrict on the prepending operator+.
        std::string name = "b";
        name += std::to_string(child);
        next.push_back(parent.child(name));
      }
    }
    level = std::move(next);
  }
  return level;
}

std::vector<std::string> Topic::segments() const {
  std::vector<std::string> out;
  if (path_.empty()) return out;
  std::string_view rest = path_;
  for (;;) {
    const auto pos = rest.find('.');
    if (pos == std::string_view::npos) {
      out.emplace_back(rest);
      return out;
    }
    out.emplace_back(rest.substr(0, pos));
    rest.remove_prefix(pos + 1);
  }
}

}  // namespace frugal::topics
