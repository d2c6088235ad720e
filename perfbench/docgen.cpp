#include "docgen.h"

#include <cstdio>

#include "util/rng.h"

namespace perfbench {

namespace {

constexpr std::size_t kTemplates = 5;

std::string hex_address(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "sub_%06llx",
                static_cast<unsigned long long>(0x400000 + (v & 0xffffff)));
  return buf;
}

GeneratedFunction instantiate(std::size_t kind, const std::string& name,
                              std::uint64_t local, std::uint64_t version) {
  const std::string v = "v" + std::to_string(local);
  const std::string w = "v" + std::to_string(local + 1);
  const std::string k = std::to_string(version);
  GeneratedFunction f;
  f.name = name;
  switch (kind) {
    case 0:
      f.text = "int " + name + "(int a1, int a2) {\n  int " + v + ";\n  int " +
               w + " = a1 * " + k + ";\n  " + w + " = " + w +
               " + a2;\n  return " + w + " + " + v + ";\n}\n";
      f.defect = {"use-before-init", v};
      break;
    case 1:
      f.text = "int " + name + "(int a1, int a2) {\n  int " + v +
               " = a1 + " + k + ";\n  " + v + " = a2 * 2;\n  return " + v +
               ";\n}\n";
      f.defect = {"dead-store", v};
      break;
    case 2:
      f.text = "int " + name + "(int a1) {\n  int " + v + " = a1 + " + k +
               ";\n  return " + v + ";\n  a1 = " + v + " * 3;\n}\n";
      f.defect = {"unreachable-code", v};
      break;
    case 3: {
      const std::string flags = "flags_" + std::to_string(local);
      f.text = "int " + name + "(int a1, int count, int " + flags +
               ") {\n  int total = 0;\n  for (int i = 0; i < count; "
               "i = i + 1) { total = total + a1; }\n  return total + " +
               k + ";\n}\n";
      f.defect = {"unused-param", flags};
      break;
    }
    default:
      f.text = "int " + name + "(int a1, int count) {\n  int " + v +
               " = 0;\n  while (count > 0) { " + v + " = " + v +
               " + a1; count = count - 1; }\n  return " + v + " + " + k +
               ";\n}\n";
      f.defect = {"placeholder-name", v};
      break;
  }
  return f;
}

}  // namespace

std::vector<GeneratedFunction> generate_functions(
    const DocumentSpec& spec, const std::vector<std::uint64_t>& versions) {
  decompeval::util::Rng rng(spec.salt);
  // Templates rotate from a random offset so every document carries each
  // defect kind at least once when it has five or more functions.
  const std::size_t offset = rng.uniform_index(kTemplates);
  std::vector<GeneratedFunction> out;
  out.reserve(spec.functions);
  for (std::size_t i = 0; i < spec.functions; ++i) {
    const std::uint64_t address = rng.next_u64();
    const std::uint64_t local = 3 + rng.uniform_index(60);
    out.push_back(instantiate((offset + i) % kTemplates,
                              hex_address(address), local, versions.at(i)));
  }
  return out;
}

std::string render_document(const std::vector<GeneratedFunction>& functions) {
  std::string source;
  for (std::size_t i = 0; i < functions.size(); ++i) {
    if (i > 0) source += '\n';
    source += functions[i].text;
  }
  return source;
}

}  // namespace perfbench
