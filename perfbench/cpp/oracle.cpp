#include "oracle.hpp"

#include <algorithm>

#include "monitor/monitor_set.hpp"

namespace perfbench {

ViolationKey KeyOf(const swmon::Violation& v) {
  return {v.property, v.trigger_stage, v.time.nanos(), v.bindings};
}

MultisetDiff CompareMultisets(std::vector<ViolationKey> expected,
                              std::vector<ViolationKey> actual) {
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  MultisetDiff d;
  std::size_t i = 0, j = 0;
  while (i < expected.size() || j < actual.size()) {
    if (j == actual.size() ||
        (i < expected.size() && expected[i] < actual[j])) {
      ++d.missing;
      ++i;
    } else if (i == expected.size() || actual[j] < expected[i]) {
      ++d.extra;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return d;
}

bool RunOracle(const std::vector<swmon::Property>& properties,
               const EncodedStream& stream, std::vector<ViolationKey>* out) {
  swmon::MonitorSet set;
  swmon::MonitorConfig config;
  config.engine = swmon::EngineKind::kInterpreted;
  for (const swmon::Property& p : properties) set.Add(p, config);
  if (!ForEachEvent(stream, [&](const swmon::DataplaneEvent& ev) {
        set.OnDataplaneEvent(ev);
      }))
    return false;
  out->clear();
  for (const swmon::Violation& v : set.AllViolations())
    out->push_back(KeyOf(v));
  return true;
}

namespace {

/// Cursor over the fixed-shape JSON ViolationsToJson emits.
struct JsonCursor {
  const std::string& s;
  std::size_t pos = 0;

  void SkipSpace() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' ||
                              s[pos] == '\r' || s[pos] == '\t'))
      ++pos;
  }
  bool Eat(char c) {
    SkipSpace();
    if (pos >= s.size() || s[pos] != c) return false;
    ++pos;
    return true;
  }
  bool Peek(char c) {
    SkipSpace();
    return pos < s.size() && s[pos] == c;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (pos < s.size() && s[pos] != '"') {
      char c = s[pos++];
      if (c == '\\') {
        if (pos >= s.size()) return false;
        const char e = s[pos++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u':
            if (pos + 4 > s.size()) return false;
            c = static_cast<char>(std::stoi(s.substr(pos, 4), nullptr, 16));
            pos += 4;
            break;
          default: c = e;
        }
      }
      out->push_back(c);
    }
    return Eat('"');
  }
  bool Number(std::uint64_t* out) {
    SkipSpace();
    const std::size_t start = pos;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') ++pos;
    if (pos == start) return false;
    *out = std::stoull(s.substr(start, pos - start));
    return true;
  }
};

}  // namespace

bool ParseViolationsJson(const std::string& json,
                         std::vector<ViolationKey>* out) {
  JsonCursor c{json};
  if (!c.Eat('[')) return false;
  bool first = true;
  while (!c.Peek(']')) {
    if (!first && !c.Eat(',')) return false;
    first = false;
    if (!c.Eat('{')) return false;
    ViolationKey key;
    bool first_field = true;
    while (!c.Peek('}')) {
      if (!first_field && !c.Eat(',')) return false;
      first_field = false;
      std::string name;
      std::uint64_t number = 0;
      if (!c.String(&name) || !c.Eat(':')) return false;
      if (name == "property") {
        if (!c.String(&key.property)) return false;
      } else if (name == "trigger_stage") {
        if (!c.String(&key.stage)) return false;
      } else if (name == "time_ns") {
        if (!c.Number(&number)) return false;
        key.time_ns = static_cast<std::int64_t>(number);
      } else if (name == "instance_id") {
        if (!c.Number(&number)) return false;
      } else if (name == "bindings") {
        if (!c.Eat('{')) return false;
        bool first_binding = true;
        while (!c.Peek('}')) {
          if (!first_binding && !c.Eat(',')) return false;
          first_binding = false;
          std::string var;
          if (!c.String(&var) || !c.Eat(':') || !c.Number(&number))
            return false;
          key.bindings.emplace_back(var, number);
        }
        c.Eat('}');
      } else {
        return false;
      }
    }
    c.Eat('}');
    out->push_back(std::move(key));
  }
  return c.Eat(']');
}

std::size_t TriggerIndex(const std::vector<std::int64_t>& times_ns,
                         std::int64_t t_ns) {
  return static_cast<std::size_t>(
      std::lower_bound(times_ns.begin(), times_ns.end(), t_ns) -
      times_ns.begin());
}

}  // namespace perfbench
