// Generator of decompiled-style mini-C documents with planted defects.
//
// A document is a run of top-level functions, each instantiated from one
// of five templates in Hex-Rays style (sub_XXXXXX names, a1/vN
// placeholders). Every template plants exactly one defect whose lint code
// and symbol are known up front, so the annotate output can be checked
// without trusting the program:
//
//   use-before-init   a local read before any assignment     (vN)
//   dead-store        a store overwritten before it is read  (vN)
//   unreachable-code  a statement after the return           (vN in it)
//   unused-param      a named parameter never read           (flags_N)
//   placeholder-name  a Hex-Rays placeholder local           (vN)
//
// A function's text depends on (document salt, function index, version):
// bumping one function's version changes one integer constant in its
// body and nothing else, which is what an IDE single-function edit looks
// like to the incremental engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct PlantedDefect {
  std::string code;    ///< lint code the annotate op must report
  std::string symbol;  ///< text the reported span must contain
};

struct GeneratedFunction {
  std::string name;
  std::string text;
  PlantedDefect defect;
};

struct DocumentSpec {
  std::uint64_t salt = 0;     ///< picks names, local numbers, templates
  std::size_t functions = 0;  ///< functions in the document
};

/// The document with every function at version `versions[i]`.
std::vector<GeneratedFunction> generate_functions(
    const DocumentSpec& spec, const std::vector<std::uint64_t>& versions);

/// Concatenated source of generate_functions (one blank line between).
std::string render_document(const std::vector<GeneratedFunction>& functions);

}  // namespace perfbench
