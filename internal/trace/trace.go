// Package trace renders block DAGs.
//
// It regenerates the paper's figures from live data: DOT output draws one
// horizontal lane per server with blocks ordered by sequence number
// (Figures 2–4), optionally annotated with the message buffers Ms[in/out]
// that interpretation materialized at each block (Figure 4). A DAG read
// back from a store (package store, as dagstore render does) renders and
// interprets the same — the decoupling of building and interpretation
// the paper emphasizes.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/interpret"
	"blockdag/internal/protocol"
	"blockdag/internal/types"
)

// Annotator supplies per-block annotation lines for DOT rendering; the
// annotator below shows message buffers.
type Annotator func(b *block.Block) []string

// Buffers is Ms[in, ℓ] and Ms[out, ℓ] as materialized at one block.
type Buffers struct {
	In, Out []protocol.Message
}

// InterpretBuffers interprets d for protocol proto in an interpreter of its
// own and returns one instance's message buffers at every block that has
// any. It asks for a block's buffers right after interpreting it, while the
// interpreter still holds everything the block read and wrote, so the pass
// is linear; an interpreter that has moved on — a running server's — answers
// the same for any block, but by replaying history for each. A DAG seeded
// with a pruned-history base (a cut store's) is interpreted from that base,
// as a restarted node interprets it. A block that cannot be read back is
// the error.
func InterpretBuffers(d *dag.DAG, proto protocol.Protocol, n, f int, label types.Label) (map[block.Ref]Buffers, error) {
	it := interpret.New(proto, n, f, nil, interpret.Over(d))
	base := d.Base()
	if err := it.SeedBase(base); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	buffers := make(map[block.Ref]Buffers)
	for i := 0; i < d.Len(); i++ {
		b, err := d.ReadRow(len(base) + i)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		if err := it.AddBlock(b); err != nil {
			return nil, fmt.Errorf("trace: interpret block %v: %w", b.Ref(), err)
		}
		if bufs := (Buffers{In: it.InMessages(b.Ref(), label), Out: it.OutMessages(b.Ref(), label)}); len(bufs.In)+len(bufs.Out) > 0 {
			buffers[b.Ref()] = bufs
		}
	}
	return buffers, nil
}

// BufferAnnotator annotates each block with its materialized in/out
// message buffers for one protocol instance, reproducing the Figure 4
// presentation.
func BufferAnnotator(buffers map[block.Ref]Buffers) Annotator {
	return func(b *block.Block) []string {
		var lines []string
		if in := buffers[b.Ref()].In; len(in) > 0 {
			lines = append(lines, "in: "+summarize(in, true))
		}
		if out := buffers[b.Ref()].Out; len(out) > 0 {
			lines = append(lines, "out: "+summarize(out, false))
		}
		return lines
	}
}

// summarize compresses a message list into "k msgs from {s1,s2}" /
// "k msgs to {s1,s2,s3}" form.
func summarize(msgs []protocol.Message, incoming bool) string {
	seen := make(map[types.ServerID]struct{})
	for _, m := range msgs {
		if incoming {
			seen[m.Sender] = struct{}{}
		} else {
			seen[m.Receiver] = struct{}{}
		}
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("s%d", id)
	}
	dir := "to"
	if incoming {
		dir = "from"
	}
	return fmt.Sprintf("%d msgs %s {%s}", len(msgs), dir, strings.Join(parts, ","))
}

// DOT renders the DAG in Graphviz format: one subgraph lane per server,
// blocks labeled "s<i>/k<seq>", edges following the preds relation, and
// optional annotations. A nil annotator renders structure only.
func DOT(d *dag.DAG, annotate Annotator) string {
	var sb strings.Builder
	sb.WriteString("digraph blockdag {\n")
	sb.WriteString("  rankdir=LR;\n")
	sb.WriteString("  node [shape=box, fontname=\"monospace\"];\n")

	byBuilder := make(map[types.ServerID][]*block.Block)
	for b := range d.All() {
		byBuilder[b.Builder] = append(byBuilder[b.Builder], b)
	}
	builders := make([]int, 0, len(byBuilder))
	for id := range byBuilder {
		builders = append(builders, int(id))
	}
	sort.Ints(builders)

	for _, id := range builders {
		fmt.Fprintf(&sb, "  subgraph cluster_s%d {\n", id)
		fmt.Fprintf(&sb, "    label=\"s%d\";\n", id)
		for _, b := range byBuilder[types.ServerID(id)] {
			label := fmt.Sprintf("s%d/k%d\\n%s", b.Builder, b.Seq, b.Ref())
			for _, rq := range b.Requests {
				label += fmt.Sprintf("\\nrs: (%s, %d bytes)", rq.Label, len(rq.Data))
			}
			if annotate != nil {
				for _, line := range annotate(b) {
					label += "\\n" + line
				}
			}
			fmt.Fprintf(&sb, "    %q [label=\"%s\"];\n", b.Ref().String(), label)
		}
		sb.WriteString("  }\n")
	}
	for b := range d.All() {
		for _, p := range b.Preds {
			fmt.Fprintf(&sb, "  %q -> %q;\n", p.String(), b.Ref().String())
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// ASCII renders a compact textual view: one line per block in insertion
// order, with chain position, predecessor refs, and requests, then one
// EQUIVOCATION line per fork in forks — each the (first, second) pair the
// DAG handed its equivocation callback (dag.DAG.SetOnEquivocation), or a
// proof's two blocks. A first block pruned below the DAG's base is nil and
// shows as "pruned".
func ASCII(d *dag.DAG, forks [][2]*block.Block) string {
	var sb strings.Builder
	i := 0
	for b := range d.All() {
		preds := make([]string, len(b.Preds))
		for j, p := range b.Preds {
			preds[j] = p.String()
		}
		fmt.Fprintf(&sb, "%3d  %s  s%d/k%-3d preds=[%s]",
			i, b.Ref(), b.Builder, b.Seq, strings.Join(preds, " "))
		i++
		for _, rq := range b.Requests {
			fmt.Fprintf(&sb, " rs=(%s,%dB)", rq.Label, len(rq.Data))
		}
		sb.WriteByte('\n')
	}
	for _, f := range forks {
		first := "pruned"
		if f[0] != nil {
			first = f[0].Ref().String()
		}
		fmt.Fprintf(&sb, "EQUIVOCATION s%d at k%d: %s vs %s\n", f[1].Builder, f[1].Seq, first, f[1].Ref())
	}
	return sb.String()
}
