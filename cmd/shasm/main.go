// Command shasm assembles virtual-ISA assembly into a binary image, or
// disassembles an image back to source. It rounds out the binary
// toolchain: programs written by hand can be profiled (shprof works on
// named workloads, shrun on images), instrumented (shinstr) and executed.
//
// Usage:
//
//	shasm -o prog.img prog.s           # assemble
//	shasm -d prog.img                  # disassemble to stdout
//	shasm -stats prog.img              # opcode histogram + analysis summary
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/bincfg"
	"repro/internal/cli"
	"repro/internal/isa"
)

func main() {
	out := flag.String("o", "", "output image path (assembly mode)")
	disasm := flag.Bool("d", false, "disassemble an image to stdout")
	statsMode := flag.Bool("stats", false, "print opcode and CFG statistics for an image")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: shasm [-d|-stats|-o out.img] file")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *out, *disasm, *statsMode); err != nil {
		fmt.Fprintln(os.Stderr, "shasm:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, path, out string, disasm, statsMode bool) error {
	if disasm || statsMode {
		prog, err := cli.ReadImage(path)
		if err != nil {
			return err
		}
		if disasm {
			fmt.Fprint(w, isa.Disassemble(prog))
			return nil
		}
		return printStats(w, prog)
	}

	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog, err := isa.Assemble(string(src))
	if err != nil {
		return err
	}
	if out == "" {
		out = path + ".img"
	}
	if err := cli.WriteFile(out, func(f io.Writer) error { return isa.SaveImage(f, prog) }); err != nil {
		return err
	}
	fmt.Fprintf(w, "assembled %d instructions, %d symbols -> %s\n",
		len(prog.Instrs), len(prog.Symbols), out)
	return nil
}

func printStats(w io.Writer, prog *isa.Program) error {
	counts := map[string]int{}
	for _, in := range prog.Instrs {
		counts[in.Op.String()]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d instructions\n", len(prog.Instrs))
	for _, n := range names {
		fmt.Fprintf(w, "  %-10s %d\n", n, counts[n])
	}
	g, err := bincfg.Build(prog)
	if err != nil {
		return err
	}
	dom := bincfg.ComputeDominators(g)
	loops := bincfg.NaturalLoops(g, dom)
	fmt.Fprintf(w, "%d basic blocks, %d roots, %d natural loops\n",
		len(g.Blocks), len(g.Roots()), len(loops))
	fmt.Fprintf(w, "%d candidate loads\n", len(bincfg.LoadsIn(prog)))
	return nil
}
