"""R003 bad fixture: unmasked address/history/tag arithmetic.

Linted under a virtual ``src/repro/predictors/`` path (the rule only
scans the hardware-modelling packages).
"""


def next_address(base, stride):
    value = base + stride  # unmasked Add on address-like values
    return value


def shift_history(history, bit):
    history = (history << 1) | bit  # unmasked LShift
    return history


def accumulate(addr, delta):
    addr += delta  # augmented Add without a masking '&'
    return addr


class ShiftRegister:
    def push(self, bit):
        # Attribute operands: the dataflow rule R008 tracks local names
        # only, so this unmasked shift is R003's alone.
        self.history = self.history << 1 | bit
