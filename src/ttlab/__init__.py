"""Team-triggered coordination lab: simulator and library for promise-based
multi-agent formation control."""
