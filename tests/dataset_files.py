"""Dataset files for the tests: the label,feature,... CSV layout that
`harness.load_dataset(path, "csv")` reads."""

import csv

import numpy as np


def save_csv(labels: np.ndarray, features: np.ndarray, path: str):
    """Write a label,feature,... dataset file readable by load_dataset."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(features.shape[1])])
        for y, row in zip(labels, features):
            writer.writerow([int(y)] + [f"{v:.17g}" for v in row])
