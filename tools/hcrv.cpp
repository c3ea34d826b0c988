// hcrv — RISC-V RV32I frontend CLI: assemble, run and trace real programs
// through the helper-cluster simulator.
//
// Usage:
//   hcrv kernels                                   list bundled kernels
//   hcrv asm   <file.s|kernel> [--list] [-o out.bin]
//   hcrv run   <file.s|kernel> [--steer SCHEME] [--budget N]
//   hcrv trace <file.s|kernel> -o out.trace [--budget N]
//
// <file.s|kernel> is a path to an assembly file, or the name of a bundled
// kernel (examples/rv/, embedded at build time). SCHEME uses describe()
// syntax: baseline, 8_8_8, 8_8_8+BR, ..., 8_8_8+BR+LR+CR+CP+IR.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "rv/assembler.hpp"
#include "rv/crack.hpp"
#include "rv/kernels.hpp"
#include "sim/simulator.hpp"

using namespace hcsim;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: hcrv kernels\n"
               "       hcrv asm   <file.s|kernel> [--list] [-o out.bin]\n"
               "       hcrv run   <file.s|kernel> [--steer SCHEME] [--budget N]\n"
               "       hcrv trace <file.s|kernel> -o out.trace [--budget N]\n");
  return 2;
}

/// Resolve the program argument: bundled kernel name first, then file path.
bool load_source(const std::string& arg, std::string& name, std::string& source) {
  if (const rv::RvKernel* k = rv::find_kernel(arg)) {
    name = k->name;
    source = k->source;
    return true;
  }
  std::ifstream f(arg, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "hcrv: '%s' is neither a bundled kernel nor a readable file\n",
                 arg.c_str());
    return false;
  }
  std::ostringstream os;
  os << f.rdbuf();
  source = os.str();
  const std::size_t slash = arg.find_last_of('/');
  name = slash == std::string::npos ? arg : arg.substr(slash + 1);
  if (name.size() > 2 && name.substr(name.size() - 2) == ".s")
    name = name.substr(0, name.size() - 2);
  return true;
}

bool assemble_arg(const std::string& arg, rv::RvProgram& prog) {
  std::string name, source;
  if (!load_source(arg, name, source)) return false;
  rv::AsmResult res = rv::assemble(name, source);
  if (!res.ok()) {
    std::fprintf(stderr, "hcrv: %s: %s\n", name.c_str(), res.error.c_str());
    return false;
  }
  prog = std::move(res.program);
  return true;
}

u64 parse_budget(const char* s) {
  u64 v = 0;
  if (parse_u64(s, v, 1) != std::errc{}) {
    std::fprintf(stderr, "hcrv: bad --budget '%s'\n", s);
    std::exit(2);
  }
  return v;
}

int cmd_kernels() {
  for (const rv::RvKernel& k : rv::bundled_kernels()) {
    rv::AsmResult res = rv::assemble(k.name, k.source);
    if (!res.ok()) {
      std::printf("%-10s (broken: %s)\n", k.name.c_str(), res.error.c_str());
      continue;
    }
    std::printf("%-10s %4u insts, %5zu byte image\n", k.name.c_str(),
                res.program.num_insts(), res.program.image.size());
  }
  return 0;
}

int cmd_asm(const std::string& arg, bool list, const std::string& out_path) {
  rv::RvProgram prog;
  if (!assemble_arg(arg, prog)) return 1;
  std::printf("%s: %u instructions, %zu byte image (%u text + %zu data)\n",
              prog.name.c_str(), prog.num_insts(), prog.image.size(),
              prog.text_bytes, prog.image.size() - prog.text_bytes);
  if (list) {
    for (u32 pc = 0; pc < prog.text_bytes; pc += 4) {
      const u32 word = prog.inst_word(pc);
      std::printf("%6x: %08x  %s\n", pc, word, rv::rv_disassemble(rv::decode(word)).c_str());
    }
    for (const auto& [label, addr] : prog.symbols)
      std::printf("%6x: <%s>\n", addr, label.c_str());
  }
  if (!out_path.empty()) {
    std::ofstream f(out_path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(prog.image.data()),
            static_cast<std::streamsize>(prog.image.size()));
    if (!f.good()) {
      std::fprintf(stderr, "hcrv: failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int cmd_run(const std::string& arg, const std::string& scheme, u64 budget) {
  rv::RvProgram prog;
  if (!assemble_arg(arg, prog)) return 1;
  const auto steer = steering_from_name(scheme);
  if (!steer) {
    std::fprintf(stderr, "hcrv: unknown steering scheme '%s'\n", scheme.c_str());
    return 2;
  }
  rv::RvTraceInfo info;
  const Trace trace = rv::trace_from_program(prog, budget, &info);
  if (!info.error.empty()) {
    std::fprintf(stderr, "hcrv: %s trapped: %s\n", prog.name.c_str(),
                 info.error.c_str());
    return 1;
  }
  std::printf("%s: %llu RV instructions -> %zu uops (%zu static)%s\n",
              prog.name.c_str(), static_cast<unsigned long long>(info.instret),
              trace.records.size(), trace.program.uops.size(),
              info.completed ? "" : " [budget cut]");

  const SimResult base = simulate(monolithic_baseline(), trace);
  const MachineConfig cfg = steer->helper_enabled ? helper_machine(*steer)
                                                  : monolithic_baseline();
  const SimResult r = simulate(cfg, trace);
  std::printf("baseline      : %.0f wide cycles, IPC %.3f\n", base.wide_cycles,
              base.ipc);
  std::printf("%-14s: %.0f wide cycles, IPC %.3f\n", r.config.c_str(),
              r.wide_cycles, r.ipc);
  std::printf("speedup       : %.3f (%+.1f%%)\n", r.speedup_vs(base),
              100.0 * (r.speedup_vs(base) - 1.0));
  std::printf("steered       : %.1f%% to helper (BR %llu, CR %llu, splits %llu)\n",
              100.0 * r.helper_frac(), (unsigned long long)r.br_steered,
              (unsigned long long)r.cr_steered, (unsigned long long)r.split_uops);
  std::printf("copies        : %.1f%% (w2n %llu, n2w %llu)\n",
              100.0 * r.copy_frac(), (unsigned long long)r.copies_w2n,
              (unsigned long long)r.copies_n2w);
  return 0;
}

int cmd_trace(const std::string& arg, u64 budget, const std::string& out_path) {
  if (out_path.empty()) {
    std::fprintf(stderr, "hcrv trace: -o <out.trace> is required\n");
    return 2;
  }
  rv::RvProgram prog;
  if (!assemble_arg(arg, prog)) return 1;
  rv::RvTraceInfo info;
  const Trace trace = rv::trace_from_program(prog, budget, &info);
  if (!info.error.empty()) {
    std::fprintf(stderr, "hcrv: %s trapped: %s\n", prog.name.c_str(),
                 info.error.c_str());
    return 1;
  }
  if (!save_trace(trace, out_path)) {
    std::fprintf(stderr, "hcrv: failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("%s: %llu RV instructions -> %zu uops -> %s%s\n", prog.name.c_str(),
              static_cast<unsigned long long>(info.instret), trace.records.size(),
              out_path.c_str(), info.completed ? "" : " [budget cut]");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "kernels") return cmd_kernels();
  if (argc < 3) return usage();
  const std::string prog_arg = argv[2];

  std::string out_path, scheme = "8_8_8+BR+LR+CR+CP+IR";
  bool list = false;
  u64 budget = default_trace_len();
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hcrv: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-o") out_path = next();
    else if (arg == "--list") list = true;
    else if (arg == "--steer") scheme = next();
    else if (arg == "--budget") budget = parse_budget(next());
    else {
      std::fprintf(stderr, "hcrv: unknown option '%s'\n", arg.c_str());
      return usage();
    }
  }

  if (cmd == "asm") return cmd_asm(prog_arg, list, out_path);
  if (cmd == "run") return cmd_run(prog_arg, scheme, budget);
  if (cmd == "trace") return cmd_trace(prog_arg, budget, out_path);
  return usage();
}
