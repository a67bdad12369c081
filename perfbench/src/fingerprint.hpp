// Host and build identity stamped next to every result, so a comparison
// between runs made on different hosts or builds can be flagged.
#pragma once

#include <string>

namespace perfbench {

/// One JSON object: nproc, cpu_model, compiler, build_type, cxx_flags.
/// The source revision (git describe, dirty flag) is added by run.py,
/// which runs in the checkout.
[[nodiscard]] std::string fingerprint_json();

}  // namespace perfbench
