// Package protocols names the embedded protocols a command can run or
// interpret: BRB, PBFT and the courier (the packages below it).
package protocols

import (
	"fmt"

	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/protocols/courier"
	"blockdag/internal/protocols/pbft"
)

// ByName returns the protocol a -protocol flag names: brb | pbft | courier.
func ByName(name string) (protocol.Protocol, error) {
	switch name {
	case "brb":
		return brb.Protocol{}, nil
	case "pbft":
		return pbft.Protocol{}, nil
	case "courier":
		return courier.Protocol{}, nil
	default:
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
}
