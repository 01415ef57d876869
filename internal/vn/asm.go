package vn

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble translates assembly text into a Program. Syntax, one statement
// per line:
//
//	# comment, or ; comment
//	label:
//	  li   rd, imm
//	  add  rd, rs, rt          (likewise sub mul div and or xor slt sle seq)
//	  addi rd, rs, imm
//	  ld   rd, rs, offset
//	  st   rs2, rs1, offset
//	  beq  rs, rt, label       (likewise bne blt bge)
//	  j    label
//	  jal  rd, label
//	  jr   rs
//	  faa  rd, rs, rt
//	  tas  rd, rs
//	  nop / halt
func Assemble(src string) (*Program, error) {
	type pending struct {
		instr int
		label string
		line  int
	}
	p := &Program{Labels: map[string]int{}}
	var fixups []pending

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		for strings.Contains(line, ":") {
			i := strings.Index(line, ":")
			label := strings.TrimSpace(line[:i])
			if label == "" || strings.ContainsAny(label, " \t,") {
				return nil, fmt.Errorf("vn: line %d: bad label %q", ln+1, label)
			}
			if _, dup := p.Labels[label]; dup {
				return nil, fmt.Errorf("vn: line %d: duplicate label %q", ln+1, label)
			}
			p.Labels[label] = len(p.Instrs)
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
		if len(fields) == 0 {
			return nil, fmt.Errorf("vn: line %d: operands without a mnemonic", ln+1)
		}
		mnemonic := strings.ToLower(fields[0])
		args := fields[1:]
		instr, labelRef, err := parseInstr(mnemonic, args)
		if err != nil {
			return nil, fmt.Errorf("vn: line %d: %v", ln+1, err)
		}
		if labelRef != "" {
			fixups = append(fixups, pending{instr: len(p.Instrs), label: labelRef, line: ln + 1})
		}
		p.Instrs = append(p.Instrs, instr)
	}
	for _, f := range fixups {
		target, ok := p.Labels[f.label]
		if !ok {
			return nil, fmt.Errorf("vn: line %d: undefined label %q", f.line, f.label)
		}
		p.Instrs[f.instr].Imm = Word(target)
	}
	if len(p.Instrs) == 0 {
		return nil, fmt.Errorf("vn: empty program")
	}
	return p, nil
}

var threeReg = map[string]Op{
	"add": ADD, "sub": SUB, "mul": MUL, "div": DIV,
	"and": AND, "or": OR, "xor": XOR,
	"slt": SLT, "sle": SLE, "seq": SEQ, "faa": FAA,
}

var branches = map[string]Op{"beq": BEQ, "bne": BNE, "blt": BLT, "bge": BGE}

// parseInstr decodes one statement; labelRef is non-empty when Imm must be
// patched to a label's address.
func parseInstr(mnemonic string, args []string) (Instr, string, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s takes %d operands, got %d", mnemonic, n, len(args))
		}
		return nil
	}
	if op, ok := threeReg[mnemonic]; ok {
		if err := need(3); err != nil {
			return Instr{}, "", err
		}
		rd, err1 := reg(args[0])
		rs, err2 := reg(args[1])
		rt, err3 := reg(args[2])
		if err := firstErr(err1, err2, err3); err != nil {
			return Instr{}, "", err
		}
		return Instr{Op: op, Rd: rd, Rs: rs, Rt: rt}, "", nil
	}
	if op, ok := branches[mnemonic]; ok {
		if err := need(3); err != nil {
			return Instr{}, "", err
		}
		rs, err1 := reg(args[0])
		rt, err2 := reg(args[1])
		if err := firstErr(err1, err2); err != nil {
			return Instr{}, "", err
		}
		return Instr{Op: op, Rs: rs, Rt: rt}, args[2], nil
	}
	switch mnemonic {
	case "nop":
		return Instr{Op: NOP}, "", need(0)
	case "halt":
		return Instr{Op: HALT}, "", need(0)
	case "li":
		if err := need(2); err != nil {
			return Instr{}, "", err
		}
		rd, err := reg(args[0])
		if err != nil {
			return Instr{}, "", err
		}
		imm, err := immediate(args[1])
		if err != nil {
			return Instr{}, "", err
		}
		return Instr{Op: LI, Rd: rd, Imm: imm}, "", nil
	case "addi":
		if err := need(3); err != nil {
			return Instr{}, "", err
		}
		rd, err1 := reg(args[0])
		rs, err2 := reg(args[1])
		imm, err3 := immediate(args[2])
		if err := firstErr(err1, err2, err3); err != nil {
			return Instr{}, "", err
		}
		return Instr{Op: ADDI, Rd: rd, Rs: rs, Imm: imm}, "", nil
	case "ld":
		if err := need(3); err != nil {
			return Instr{}, "", err
		}
		rd, err1 := reg(args[0])
		rs, err2 := reg(args[1])
		off, err3 := immediate(args[2])
		if err := firstErr(err1, err2, err3); err != nil {
			return Instr{}, "", err
		}
		return Instr{Op: LD, Rd: rd, Rs: rs, Imm: off}, "", nil
	case "st":
		if err := need(3); err != nil {
			return Instr{}, "", err
		}
		rt, err1 := reg(args[0]) // value
		rs, err2 := reg(args[1]) // base
		off, err3 := immediate(args[2])
		if err := firstErr(err1, err2, err3); err != nil {
			return Instr{}, "", err
		}
		return Instr{Op: ST, Rt: rt, Rs: rs, Imm: off}, "", nil
	case "j":
		if err := need(1); err != nil {
			return Instr{}, "", err
		}
		return Instr{Op: J}, args[0], nil
	case "jal":
		if err := need(2); err != nil {
			return Instr{}, "", err
		}
		rd, err := reg(args[0])
		if err != nil {
			return Instr{}, "", err
		}
		return Instr{Op: JAL, Rd: rd}, args[1], nil
	case "jr":
		if err := need(1); err != nil {
			return Instr{}, "", err
		}
		rs, err := reg(args[0])
		if err != nil {
			return Instr{}, "", err
		}
		return Instr{Op: JR, Rs: rs}, "", nil
	case "tas":
		if err := need(2); err != nil {
			return Instr{}, "", err
		}
		rd, err1 := reg(args[0])
		rs, err2 := reg(args[1])
		if err := firstErr(err1, err2); err != nil {
			return Instr{}, "", err
		}
		return Instr{Op: TAS, Rd: rd, Rs: rs}, "", nil
	case "cns":
		if err := need(2); err != nil {
			return Instr{}, "", err
		}
		rd, err1 := reg(args[0])
		rs, err2 := reg(args[1])
		if err := firstErr(err1, err2); err != nil {
			return Instr{}, "", err
		}
		return Instr{Op: CNS, Rd: rd, Rs: rs}, "", nil
	case "prd":
		if err := need(2); err != nil {
			return Instr{}, "", err
		}
		rt, err1 := reg(args[0])
		rs, err2 := reg(args[1])
		if err := firstErr(err1, err2); err != nil {
			return Instr{}, "", err
		}
		return Instr{Op: PRD, Rt: rt, Rs: rs}, "", nil
	}
	return Instr{}, "", fmt.Errorf("unknown mnemonic %q", mnemonic)
}

func reg(s string) (uint8, error) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

func immediate(s string) (Word, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return v, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
