"""The join-based series.csv writer: every row formatted into one list, joined
into one string and written at once.  `harness.emit_outputs` streams the
rows in slices instead; this is the byte reference it is checked against."""

from pathlib import Path

from stefanetc.harness import SERIES_COLUMNS


def write_series_csv(series: dict, path: Path) -> None:
    lines = [",".join(SERIES_COLUMNS)]
    for i in range(series["t"].size):
        lines.append(",".join(repr(float(series[c][i]))
                              for c in SERIES_COLUMNS))
    path.write_text("\r\n".join(lines) + "\r\n")
